/**
 * @file
 * Shared test harness: the tests' bare-metal memory layout on a
 * BareMachine, GuestRunner, which runs one VCPU on the functional
 * engine, and BootedMachine, a Machine booted into the paravirtual
 * kernel. Used by the decode/exec/core, kernel and event test suites.
 */

#ifndef PTLSIM_TESTS_GUEST_HARNESS_H_
#define PTLSIM_TESTS_GUEST_HARNESS_H_

#include "core/seqcore.h"
#include "kernel/guestkernel.h"
#include "kernel/guestlib.h"
#include "lib/logging.h"
#include "sys/baremachine.h"
#include "sys/machine.h"
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

/** The booted-kernel tests' machine: the K8 preset on `core` with the
 *  commit checker armed, 32 MB of guest memory and a 10 MHz clock so
 *  1 kHz timer ticks come every 10k cycles. */
inline SimConfig
bootConfig(const char *core = "seq")
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = core;
    cfg.commit_checker = true;
    cfg.core_freq_hz = 10'000'000;
    cfg.timer_hz = 1000;
    cfg.snapshot_interval = 100'000;
    cfg.guest_mem_bytes = 32 << 20;
    return cfg;
}

/** A Machine booted into the paravirtual kernel whose init task runs
 *  `user_code`, placed after GuestLib's runtime. */
struct BootedMachine
{
    BootedMachine(const SimConfig &cfg,
                  void (*user_code)(Assembler &, GuestLib &))
        : machine(cfg), builder(machine.addressSpace(), machine.vcpu(0),
                                machine.timerPeriodCycles())
    {
        Assembler &ua = builder.userAsm();
        GuestLib lib(ua);
        Label entry = ua.newLabel();
        Label skip = ua.newLabel();
        ua.jmp(skip);           // jump over the library
        lib.emitRuntime();
        ua.bind(skip);
        ua.bind(entry);
        user_code(ua, lib);
        builder.setInitTask(ua.labelVa(entry), 0);
        builder.build();
        machine.finalizeCores();
    }

    /** The kernel data word at KDATA_VA + `offset`. */
    U64
    readKdata(U64 offset)
    {
        Context kctx;
        kctx.cr3 = builder.taskCr3(0);
        kctx.kernel_mode = true;
        U64 v = 0;
        guestRead(machine.addressSpace(), kctx, GuestVirt(KDATA_VA + offset),
                  8, v);
        return v;
    }

    Machine machine;
    KernelBuilder builder;
};

}  // namespace ptl

#endif  // PTLSIM_TESTS_GUEST_HARNESS_H_
