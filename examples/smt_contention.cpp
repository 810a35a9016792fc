/**
 * SMT example: two hardware threads on one K8-like core hammer a
 * shared counter with LOCK-prefixed instructions — the cross-thread
 * interlock semantics of Section 4.4 ("PTLsim faithfully models all
 * lock contention in terms of real interlocked x86 instructions").
 * Userspace-only simulators with "pseudo-SMT" cannot run this: the
 * threads genuinely share memory and the interlock controller
 * arbitrates the locked read-modify-writes.
 *
 *   $ ./smt_contention
 */

#include <cstdio>

#include "sys/baremachine.h"
#include "xasm/assembler.h"

using namespace ptl;

namespace {

constexpr int ITERS = 2000;

}  // namespace

int
main()
{
    // One K8-like SMT core hosting both VCPUs as hardware threads.
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "smt";
    cfg.smt_threads = 2;
    cfg.vcpu_count = 2;
    cfg.guest_mem_bytes = 32 << 20;
    cfg.seed = 3;
    BareMachine m(cfg);
    m.map(0x400000, 16 * PAGE_SIZE, Pte::RW | Pte::US);
    m.map(0x600000, 16 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    m.map(0x7E0000, 32 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);

    // Each thread adds (thread_id + 1) to the shared counter with
    // `lock xadd`, ITERS times, and also bumps a private counter.
    Assembler a(0x400000);
    a.movImm64(R::rbx, 0x600000);
    a.mov(R::rcx, ITERS);
    a.mov(R::rdx, R::rdi);
    a.inc(R::rdx);
    Label top = a.label();
    a.mov(R::rax, R::rdx);
    a.lockXadd(Mem::at(R::rbx), R::rax);
    a.inc(Mem::idx(R::rbx, R::rdi, 8, 64));   // private progress slot
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    m.load(a);
    for (int t = 0; t < 2; t++) {
        m.vcpu(t).regs[REG_rsp] = 0x7FF000 - (U64)t * 0x8000;
        m.vcpu(t).regs[REG_rdi] = (U64)t;      // thread id
    }

    m.finalizeCores();
    U64 cycle = m.run(100'000'000);

    U64 shared = m.readGuest(0x600000, 8);
    U64 p0 = m.readGuest(0x600040, 8);
    U64 p1 = m.readGuest(0x600048, 8);
    U64 expected = (U64)ITERS * 3;  // 1 + 2 per round

    std::printf("two SMT threads x %d locked xadds\n", ITERS);
    std::printf("shared counter = %llu (expected %llu) %s\n",
                (unsigned long long)shared,
                (unsigned long long)expected,
                shared == expected ? "ATOMIC" : "LOST UPDATES!");
    std::printf("per-thread progress: T0=%llu T1=%llu\n",
                (unsigned long long)p0, (unsigned long long)p1);
    std::printf("cycles: %llu; committed insns: %llu (both threads)\n",
                (unsigned long long)cycle,
                (unsigned long long)m.stats().get("core0/commit/insns"));
    std::printf("interlock acquires: %llu, lsq replays (incl. lock "
                "contention): %llu\n",
                (unsigned long long)m.stats().get("interlock/acquires"),
                (unsigned long long)m.stats().get("core0/lsq/replays"));
    return shared == expected ? 0 : 1;
}
