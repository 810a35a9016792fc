/**
 * Quickstart: assemble a guest program with the in-tree x86-64
 * assembler, run it on the K8-configured out-of-order core, and read
 * the statistics tree — the minimal end-to-end use of the library.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "sys/baremachine.h"
#include "xasm/assembler.h"

using namespace ptl;

int
main()
{
    // 1. A bare-metal guest machine built from the K8 configuration:
    //    physical memory, page tables, decoded-code cache, statistics.
    SimConfig cfg = SimConfig::preset("k8");
    cfg.guest_mem_bytes = 32 << 20;
    cfg.seed = 1;
    BareMachine m(cfg);

    // 2. Map code, data and a stack; 4-level x86-64 page tables are
    //    built for real in guest memory.
    m.map(0x400000, 16 * PAGE_SIZE, Pte::RW | Pte::US);
    m.map(0x600000, 16 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    m.map(0x7F0000, 16 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);

    // 3. Assemble a program: sum of squares of 1..100, kept in memory.
    Assembler a(0x400000);
    a.movImm64(R::rbx, 0x600000);
    a.mov(R::rcx, 100);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.imul(R::rdx, R::rcx);
    a.add(R::rax, R::rdx);
    a.mov(Mem::at(R::rbx), R::rax);      // running total in memory
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    m.load(a);
    m.vcpu(0).regs[REG_rsp] = 0x7FF000;

    // 4. Instantiate the K8-configured out-of-order core model from
    //    the plug-in registry and clock it until the program halts.
    m.finalizeCores();
    U64 cycle = m.run(1'000'000);

    // 5. Results: architectural state + the PTLstats counter tree.
    U64 result = m.readGuest(0x600000, 8);
    StatsTree &stats = m.stats();
    std::printf("sum of squares 1..100 = %llu (expected 338350)\n",
                (unsigned long long)result);
    std::printf("rax = %llu\n", (unsigned long long)m.vcpu(0).regs[REG_rax]);
    std::printf("\nsimulated %llu cycles, IPC %.2f\n",
                (unsigned long long)cycle,
                (double)stats.get("core0/commit/insns") / (double)cycle);
    std::printf("\nselected statistics:\n%s",
                stats.renderTable("core0/commit/").c_str());
    std::printf("%s", stats.renderTable("core0/branches/").c_str());
    std::printf("%s", stats.renderTable("bbcache/").c_str());
    return result == 338350 ? 0 : 1;
}
