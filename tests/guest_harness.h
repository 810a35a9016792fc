/**
 * @file
 * Shared test harness: the tests' bare-metal memory layout on a
 * BareMachine, and GuestRunner, which runs one VCPU on the functional
 * engine. Used by the decode/exec/core test suites.
 */

#ifndef PTLSIM_TESTS_GUEST_HARNESS_H_
#define PTLSIM_TESTS_GUEST_HARNESS_H_

#include "core/seqcore.h"
#include "lib/logging.h"
#include "sys/baremachine.h"
#include "xasm/assembler.h"

namespace ptl {

constexpr U64 CODE_BASE = 0x400000;
constexpr U64 DATA_BASE = 0x600000;
constexpr U64 STACK_TOP = 0x800000;

/** The tests' machine: 32 MB of guest memory with MFN seed 7. */
inline SimConfig
testConfig(SimConfig cfg = SimConfig())
{
    cfg.guest_mem_bytes = 32 << 20;
    cfg.seed = 7;
    return cfg;
}

/** Map 1 MB each of code and data and `stack_pages` of stack below
 *  STACK_TOP. VCPU i starts with its thread id i in rdi and its stack
 *  64 KB below VCPU i-1's. */
inline void
mapTestLayout(BareMachine &m, U64 stack_pages = 256)
{
    m.map(CODE_BASE, 256 * PAGE_SIZE, Pte::RW | Pte::US);
    m.map(DATA_BASE, 256 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    m.map(STACK_TOP - stack_pages * PAGE_SIZE, stack_pages * PAGE_SIZE,
          Pte::RW | Pte::US | Pte::NX);
    for (int i = 0; i < m.vcpuCount(); i++) {
        m.vcpu(i).regs[REG_rsp] = STACK_TOP - 64 - (U64)i * 0x10000;
        m.vcpu(i).regs[REG_rdi] = (U64)i;
    }
}

/** Run the cores until every VCPU halts; not halting within
 *  `max_cycles` fails the test. Returns the cycles run. */
inline U64
runToHalt(BareMachine &m, U64 max_cycles = 3'000'000)
{
    U64 cycles = m.run(max_cycles);
    ptl_assert(m.allIdle());
    return cycles;
}

/** Map the test layout, load `a`, build the cores and run until every
 *  VCPU halts (see runToHalt). Returns the cycles run. */
inline U64
runOnCores(BareMachine &m, Assembler &a, U64 max_cycles = 3'000'000)
{
    mapTestLayout(m);
    m.load(a);
    m.finalizeCores();
    return runToHalt(m, max_cycles);
}

/** Serial pointer-chase: every load address depends on the previous
 *  load's value, so each D-cache/TLB miss fully drains the pipeline and
 *  leaves long stretches of quiesced cycles for skip-ahead to jump. */
inline void
serialMissChain(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 64);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 13);               // 8 KB stride: unique lines+pages
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);           // serialize on the previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);           // memory is zero-filled: rax stays 0
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** One VCPU on the functional engine. Unlike the cores, it shadow-walks
 *  every translation-cache hit whether or not verification is on. */
class GuestRunner : public BareMachine
{
  public:
    GuestRunner()
        : BareMachine(testConfig()), ctx(vcpu(0)), aspace(addressSpace()),
          engine(ctx, aspace, bbCache(), *this, stats(), "")
    {
        aspace.transCache().setShadowEnabled(true);
        mapTestLayout(*this, 64);
    }

    /** Run until the VCPU blocks (hlt) or `max_insns` is exceeded. */
    int
    execute(int max_insns = 100000)
    {
        int executed = 0;
        while (ctx.running && executed < max_insns) {
            FunctionalEngine::StepResult r =
                engine.stepInsn(SimCycle((U64)executed));
            executed += r.insns;
            if (r.idle)
                break;
        }
        ptl_assert(executed < max_insns);
        return executed;
    }

    U64 reg(R r) const { return ctx.regs[(int)r]; }

    Context &ctx;
    AddressSpace &aspace;
    FunctionalEngine engine;
};

}  // namespace ptl

#endif  // PTLSIM_TESTS_GUEST_HARNESS_H_
