/**
 * SMT and multi-core tests: per-thread pipeline structures sharing
 * issue queues / caches, fetch policies, cross-thread interlocked
 * instruction semantics (Section 4.4), deadlock rescue, and multi-core
 * coherence with both instant-visibility and MOESI protocols.
 */

#include <gtest/gtest.h>

#include <climits>

#include "core/ooo/ooocore.h"
#include "guest_harness.h"
#include "verify/verify.h"

namespace ptl {
namespace {

SimConfig
smtConfig(int threads, SmtPolicy policy = SmtPolicy::RoundRobin)
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "smt";
    cfg.vcpu_count = threads;
    cfg.smt_threads = threads;
    cfg.smt_policy = policy;
    cfg.commit_checker = true;
    return cfg;
}

/** Each thread (rdi = thread id) atomically adds its id+1 to a shared
 *  counter `iterations` times; returns the counter once all halt. */
U64
runLockContention(BareMachine &r, int iterations)
{
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, (U64)iterations);
    a.mov(R::rdx, R::rdi);
    a.inc(R::rdx);               // addend = id + 1
    Label top = a.label();
    a.mov(R::rax, R::rdx);
    a.lockXadd(Mem::at(R::rbx), R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    runOnCores(r, a, 60'000'000);
    return r.readGuest(DATA_BASE, 8);
}

TEST(Smt, InterlockedAtomicityAcrossThreads)
{
    constexpr int ITERS = 500;
    BareMachine r(smtConfig(2));
    // Thread 0 adds 1, thread 1 adds 2, ITERS times each.
    EXPECT_EQ(runLockContention(r, ITERS), (U64)(ITERS * 3));
    EXPECT_GT(r.stats().get("interlock/acquires"), 2ULL * ITERS - 10);
}

TEST(Smt, BothThreadsMakeProgress)
{
    BareMachine r(smtConfig(2));
    Assembler a(CODE_BASE);
    // Independent CPU-bound loops writing progress counters.
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 2000);
    Label top = a.label();
    a.mov(Mem::idx(R::rbx, R::rdi, 8, 0x100), R::rcx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.mov(Mem::idx(R::rbx, R::rdi, 8, 0x200), R::rdi);
    a.hlt();
    U64 cycles = runOnCores(r, a, 10'000'000);
    EXPECT_EQ(r.readGuest(DATA_BASE + 0x200, 8), 0ULL);
    EXPECT_EQ(r.readGuest(DATA_BASE + 0x208, 8), 1ULL);
    // Sharing one 3-wide core: combined throughput beats 2x serial but
    // each thread is slower than alone; just sanity-bound the cycles.
    EXPECT_LT(cycles, 10'000'000ULL);
    EXPECT_EQ(r.stats().get("core0/commit/insns"),
              2 * (2ULL + 2000 * 3 + 1 + 1));
}

TEST(Smt, IcountPolicyAlsoCorrect)
{
    BareMachine r(smtConfig(2, SmtPolicy::Icount));
    EXPECT_EQ(runLockContention(r, 300), 300ULL * 3);
}

TEST(Smt, FourThreads)
{
    BareMachine r(smtConfig(4));
    // Sum of (id+1) over 4 threads = 10 per round.
    EXPECT_EQ(runLockContention(r, 200), 200ULL * 10);
}

TEST(Smt, SpinlockCriticalSection)
{
    // Classic test-and-set spinlock protecting a non-atomic RMW.
    constexpr int ITERS = 300;
    BareMachine r(smtConfig(2));
    Assembler a(CODE_BASE);
    Label acquire = a.newLabel(), spin = a.newLabel(), go = a.newLabel();
    a.movImm64(R::rbx, DATA_BASE);        // lock word
    a.movImm64(R::rbp, DATA_BASE + 64);   // protected counter
    a.mov(R::rcx, (U64)ITERS);
    a.bind(acquire);
    // try: cmpxchg(lock: 0 -> 1)
    a.mov(R::rax, 0);
    a.mov(R::rdx, 1);
    a.lockCmpxchg(Mem::at(R::rbx), R::rdx);
    a.jcc(COND_e, go);
    a.bind(spin);
    a.cmp8(Mem::at(R::rbx), 0);
    a.jcc(COND_ne, spin);
    a.jmp(acquire);
    a.bind(go);
    // critical section: plain (non-atomic) increment
    a.mov(R::rax, Mem::at(R::rbp));
    a.inc(R::rax);
    a.mov(Mem::at(R::rbp), R::rax);
    // release
    a.mov(R::rdx, 0);
    a.mov(Mem::at(R::rbx), R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, acquire);
    a.hlt();
    runOnCores(r, a, 60'000'000);
    EXPECT_EQ(r.readGuest(DATA_BASE + 64, 8), (U64)(2 * ITERS));
    EXPECT_EQ(r.readGuest(DATA_BASE, 8), 0ULL);  // unlocked
}

/**
 * The rename and commit rotors advance every cycle, so a free-running
 * int would overflow after 2^31 cycles and pick threads[-1]. Started at
 * INT_MAX - 1 (which is 0 modulo 2, the default start), they must pick
 * the same threads as from 0: the same commit stream, cycle for cycle.
 */
TEST(Smt, RotorsNearIntMaxCommitTheSameStream)
{
    std::unique_ptr<BareMachine> runs[2];
    U64 cycles[2];
    for (int i = 0; i < 2; i++) {
        runs[i] = std::make_unique<BareMachine>(smtConfig(2));
        BareMachine &r = *runs[i];
        Assembler a(CODE_BASE);
        serialMissChain(a);
        mapTestLayout(r);
        r.load(a);
        r.finalizeCores();
        if (i == 1)
            VerifyTestHook::setSmtRotors(
                dynamic_cast<OooCore &>(r.core(0)), INT_MAX - 1);
        cycles[i] = runToHalt(r);
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    StatsTree &s0 = runs[0]->stats();
    StatsTree &s1 = runs[1]->stats();
    ASSERT_EQ(s0.paths(), s1.paths());
    for (const std::string &p : s0.paths())
        EXPECT_EQ(s0.get(p), s1.get(p)) << p;
    for (int t = 0; t < 2; t++) {
        for (int reg = 0; reg < 16; reg++)
            EXPECT_EQ(runs[0]->vcpu(t).regs[reg], runs[1]->vcpu(t).regs[reg])
                << "thread " << t << " reg " << reg;
    }
    EXPECT_GT(s1.get("core0/ooocore/skipped_cycles"), 0ULL);
}

// ---------------------------------------------------------------------
// Multi-core (one thread per core, shared coherence + interlocks)
// ---------------------------------------------------------------------

/** Two K8 OoO cores, one VCPU each, joined by `kind` coherence. */
SimConfig
multiCoreConfig(CoherenceKind kind)
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    cfg.commit_checker = true;
    cfg.coherence = kind;
    cfg.vcpu_count = 2;
    return cfg;
}

/** Each core lock-increments one shared counter `iterations` times;
 *  returns the cycles until both halt. */
U64
runSharedIncrements(BareMachine &rig, int iterations)
{
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, (U64)iterations);
    Label top = a.label();
    a.lockInc(Mem::at(R::rbx));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    return runOnCores(rig, a, 50'000'000);
}

class MultiCoreCoherence
    : public ::testing::TestWithParam<CoherenceKind>
{
};

TEST_P(MultiCoreCoherence, AtomicCountersAcrossCores)
{
    constexpr int ITERS = 400;
    BareMachine rig(multiCoreConfig(GetParam()));
    runSharedIncrements(rig, ITERS);
    EXPECT_EQ(rig.readGuest(DATA_BASE, 8), (U64)(2 * ITERS));
    rig.coherence()->checkAllInvariants();
    EXPECT_GT(rig.stats().get("coherence/invalidations"), 0ULL);
}

TEST_P(MultiCoreCoherence, ProducerConsumerFlag)
{
    BareMachine rig(multiCoreConfig(GetParam()));
    Assembler a(CODE_BASE);
    // Core 0 writes data then sets a flag; core 1 spins on the flag
    // then reads the data. Store commit order makes this safe.
    Label core1 = a.newLabel(), start = a.newLabel();
    a.jmp(start);
    a.bind(core1);
    a.movImm64(R::rbx, DATA_BASE);
    Label spin = a.label();
    a.cmp8(Mem::at(R::rbx, 64), 1);
    a.jcc(COND_ne, spin);
    a.mov(R::r8, Mem::at(R::rbx));     // must observe 0xD47A
    a.hlt();
    a.bind(start);
    // Core 0 path: if vcpu_id (rdi) != 0, jump to the consumer.
    a.test(R::rdi, R::rdi);
    a.jcc(COND_ne, core1);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rax, 0xD47A);
    a.mov(Mem::at(R::rbx), R::rax);    // data
    a.mov(R::rax, 1);
    a.mov8(Mem::at(R::rbx, 64), R::rax);  // flag (different line)
    a.hlt();
    runOnCores(rig, a, 50'000'000);
    EXPECT_EQ(rig.vcpu(1).regs[REG_r8], 0xD47AULL);
    rig.coherence()->checkAllInvariants();
}

INSTANTIATE_TEST_SUITE_P(Protocols, MultiCoreCoherence,
                         ::testing::Values(CoherenceKind::InstantVisibility,
                                           CoherenceKind::Moesi));

TEST(MultiCore, MoesiCostsMoreThanInstant)
{
    // Ping-pong a line between two cores: MOESI pays interconnect
    // latency per transfer, the instant model does not (paper default).
    auto run_with = [](CoherenceKind kind) {
        BareMachine rig(multiCoreConfig(kind));
        return runSharedIncrements(rig, 300);
    };
    U64 instant = run_with(CoherenceKind::InstantVisibility);
    U64 moesi = run_with(CoherenceKind::Moesi);
    EXPECT_GT(moesi, instant + 1000);
}

}  // namespace
}  // namespace ptl
