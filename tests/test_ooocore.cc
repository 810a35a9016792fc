/**
 * Out-of-order core tests. The strongest property here mirrors the
 * paper's co-simulation self-validation: every program runs with the
 * commit checker enabled (each committed uop is re-verified against an
 * in-order architectural replay), and a parameterized equivalence
 * suite runs identical guest programs on the functional engine and the
 * OOO pipeline, requiring bit-identical final architectural state.
 */

#include <gtest/gtest.h>

#include "core/ooo/ring.h"
#include "guest_harness.h"

namespace ptl {
namespace {

SimConfig
oooConfig()
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    cfg.commit_checker = true;
    return cfg;
}

// ---------------------------------------------------------------------
// Equivalence: functional engine vs OOO pipeline
// ---------------------------------------------------------------------

struct Program
{
    const char *name;
    void (*body)(Assembler &);
};

void
progArithLoop(Assembler &a)
{
    a.mov(R::rax, 1);
    a.mov(R::rcx, 20);
    Label top = a.label();
    a.imul(R::rax, R::rcx);
    a.add(R::rax, 7);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progMemoryChurn(Assembler &a)
{
    // Write then re-read a table with data-dependent addressing.
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 0);
    Label fill = a.label();
    a.mov(R::rax, R::rcx);
    a.imul(R::rax, R::rax, 2654435761);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.inc(R::rcx);
    a.cmp(R::rcx, 256);
    a.jcc(COND_ne, fill);
    a.mov(R::rdx, 0);
    a.mov(R::rcx, 0);
    Label sum = a.label();
    a.mov(R::rax, Mem::idx(R::rbx, R::rcx, 8));
    a.add(R::rdx, R::rax);
    a.and_(R::rax, 255);
    a.add(R::rdx, Mem::idx(R::rbx, R::rax, 8));  // dependent load
    a.inc(R::rcx);
    a.cmp(R::rcx, 256);
    a.jcc(COND_ne, sum);
    a.hlt();
}

void
progCallsAndStack(Assembler &a)
{
    Label fib = a.newLabel(), start = a.newLabel();
    a.jmp(start);
    // fib(rdi) -> rax, recursive.
    a.bind(fib);
    a.cmp(R::rdi, 2);
    Label recurse = a.newLabel();
    a.jcc(COND_nb, recurse);
    a.mov(R::rax, R::rdi);
    a.ret();
    a.bind(recurse);
    a.push(R::rdi);
    a.sub(R::rdi, 1);
    a.call(fib);
    a.pop(R::rdi);
    a.push(R::rax);
    a.sub(R::rdi, 2);
    a.call(fib);
    a.pop(R::rcx);
    a.add(R::rax, R::rcx);
    a.ret();
    a.bind(start);
    a.mov(R::rdi, 12);
    a.call(fib);
    a.hlt();
}

void
progFlagsTorture(Assembler &a)
{
    // adc chains, inc/dec CF preservation, setcc/cmov, rotates.
    a.mov(R::rax, 0);
    a.mov(R::rbx, 0);
    a.mov(R::rcx, 100);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.imul(R::rdx, R::rdx, 0x9E3779B9);
    a.add(R::rax, R::rdx);          // sets CF sometimes
    a.adc(R::rbx, 0);               // accumulate carries
    a.inc(R::rax);                  // preserves CF
    a.adc(R::rbx, 0);
    a.setcc(COND_s, R::rsi);
    a.add(R::rbx, R::rsi);
    a.rol(R::rax, 7);
    a.cmp(R::rdx, R::rax);
    a.cmovcc(COND_b, R::rdx, R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progStringAndDiv(Assembler &a)
{
    a.movImm64(R::rdi, DATA_BASE);
    a.mov(R::rax, 0x5A);
    a.mov(R::rcx, 777);
    a.cld();
    a.repStosb();
    a.movImm64(R::rsi, DATA_BASE);
    a.movImm64(R::rdi, DATA_BASE + 0x2000);
    a.mov(R::rcx, 777);
    a.repMovsb();
    a.movImm64(R::rax, 123456789123ULL);
    a.mov(R::rdx, 0);
    a.mov(R::rbx, 1000003);
    a.div(R::rbx);
    a.hlt();
}

void
progStoreLoadForwarding(Assembler &a)
{
    // Tight store->load dependencies through the stack.
    a.mov(R::rcx, 200);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.push(R::rcx);
    a.add(R::rax, Mem::at(R::rsp));   // forwarded from the push
    a.pop(R::rdx);
    a.mov(Mem::at(R::rsp, -16), R::rax);
    a.mov(R::rbx, Mem::at(R::rsp, -16));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
progSseMix(Assembler &a)
{
    a.mov(R::rax, 3);
    a.cvtsi2sd(X::xmm0, R::rax);
    a.mov(R::rcx, 50);
    Label top = a.label();
    a.mov(R::rax, R::rcx);
    a.cvtsi2sd(X::xmm1, R::rax);
    a.mulsd(X::xmm1, X::xmm1);
    a.addsd(X::xmm0, X::xmm1);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.sqrtsd(X::xmm0, X::xmm0);
    a.cvttsd2si(R::rbx, X::xmm0);
    a.hlt();
}

const Program kPrograms[] = {
    {"arith_loop", progArithLoop},
    {"memory_churn", progMemoryChurn},
    {"calls_and_stack", progCallsAndStack},
    {"flags_torture", progFlagsTorture},
    {"string_and_div", progStringAndDiv},
    {"store_load_forwarding", progStoreLoadForwarding},
    {"sse_mix", progSseMix},
};

class OooEquivalence : public ::testing::TestWithParam<size_t>
{
};

TEST_P(OooEquivalence, MatchesFunctionalEngine)
{
    const Program &prog = kPrograms[GetParam()];

    // Reference run on the functional engine.
    GuestRunner ref;
    {
        Assembler a(CODE_BASE);
        prog.body(a);
        ref.load(a);
        ref.execute(2'000'000);
    }

    // Pipelined run with the commit checker armed.
    BareMachine ooo(oooConfig());
    {
        Assembler a(CODE_BASE);
        prog.body(a);
        runOnCores(ooo, a, 20'000'000);
    }

    for (int r = 0; r < 16; r++) {
        if (r == (int)R::rsp)
            continue;  // compared below
        ASSERT_EQ(ooo.vcpu(0).regs[r], ref.ctx.regs[r])
            << prog.name << ": GPR " << uopRegName(r);
    }
    EXPECT_EQ(ooo.vcpu(0).regs[REG_rsp] - (STACK_TOP - 64),
              ref.ctx.regs[REG_rsp] - (STACK_TOP - 64))
        << prog.name << ": stack depth";
    for (int x = REG_xmm0; x <= REG_xmm15; x++)
        ASSERT_EQ(ooo.vcpu(0).regs[x], ref.ctx.regs[x])
            << prog.name << ": " << uopRegName(x);
    // Same dynamic instruction count.
    EXPECT_EQ(ooo.stats().get("core0/commit/insns"),
              ref.stats().get("commit/insns"))
        << prog.name;
    // Data region contents identical.
    for (U64 off = 0; off < 0x3000; off += 8) {
        ASSERT_EQ(ooo.readGuest(DATA_BASE + off, 8),
                  ref.readGuest(DATA_BASE + off, 8))
            << prog.name << " data at +" << off;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, OooEquivalence,
    ::testing::Range<size_t>(0, sizeof(kPrograms) / sizeof(kPrograms[0])),
    [](const ::testing::TestParamInfo<size_t> &pinfo) {
        return kPrograms[pinfo.param].name;
    });

// ---------------------------------------------------------------------
// Microarchitectural behaviour
// ---------------------------------------------------------------------

TEST(OooCoreTest, AchievesIlpOnIndependentOps)
{
    // A long stream of independent single-cycle ops must commit at
    // well above 1 IPC on the 3-wide K8 configuration.
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.mov(R::r8, 1);
    a.mov(R::r9, 2);
    a.mov(R::r10, 3);
    a.mov(R::rcx, 50);          // warm iterations amortize cold caches
    Label top = a.label();
    for (int i = 0; i < 100; i++) {
        a.add(R::r8, 5);
        a.add(R::r9, 7);
        a.add(R::r10, 9);
    }
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    U64 insns = r.stats().get("core0/commit/insns");
    double ipc = (double)insns / (double)cycles;
    EXPECT_GT(ipc, 1.5) << "cycles=" << cycles << " insns=" << insns;
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 1 + 5 * 100 * 50ULL);
}

TEST(OooCoreTest, DependencyChainLimitsIpc)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.mov(R::rax, 1);
    for (int i = 0; i < 600; i++)
        a.imul(R::rax, R::rax, 3);  // serial 3-cycle chain
    a.hlt();
    U64 cycles = runOnCores(r, a);
    U64 insns = r.stats().get("core0/commit/insns");
    // Each imul takes lat_mul cycles back-to-back.
    EXPECT_GT((double)cycles / (double)insns, 2.0);
}

TEST(OooCoreTest, BranchMispredictsAreCounted)
{
    // Data-dependent unpredictable-ish branch pattern.
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.mov(R::rbx, 12345);
    a.mov(R::rcx, 2000);
    a.mov(R::rdx, 0);
    Label top = a.label();
    // xorshift step
    a.mov(R::rax, R::rbx);
    a.shl(R::rax, 13);
    a.xor_(R::rbx, R::rax);
    a.mov(R::rax, R::rbx);
    a.shr(R::rax, 7);
    a.xor_(R::rbx, R::rax);
    a.test(R::rbx, 1);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.inc(R::rdx);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    runOnCores(r, a);
    EXPECT_GT(r.stats().get("core0/branches/cond"), 3000ULL);
    EXPECT_GT(r.stats().get("core0/branches/mispredicted"), 100ULL);
    // The loop-closing branch trains perfectly, so the rate is < 50%.
    EXPECT_LT(r.stats().get("core0/branches/mispredicted"),
              r.stats().get("core0/branches/cond") / 2);
}

TEST(OooCoreTest, StoreToLoadForwardingCounted)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    progStoreLoadForwarding(a);
    runOnCores(r, a);
    EXPECT_GT(r.stats().get("core0/lsq/forwards"), 100ULL);
}

TEST(OooCoreTest, DisambiguationUsesPhysicalAddresses)
{
    // Two virtual windows onto one physical frame: a store through one
    // mapping must be visible to an immediately following load through
    // the other. The LSQ disambiguates by physical address (like the
    // paper's LSQ), so the load either forwards from the store queue or
    // replays until the store commits; matching on virtual addresses
    // alone would let the load read the frame's stale contents.
    constexpr U64 ALIAS = 0x5000000;
    SimConfig cfg = oooConfig();
    cfg.load_hoisting = true;
    BareMachine r(cfg);
    mapTestLayout(r);
    Pfn mfn = r.addressSpace().walk(r.root(), GuestVirt(DATA_BASE)).mfn;
    r.addressSpace().map(r.root(), GuestVirt(ALIAS), mfn,
                         Pte::RW | Pte::US | Pte::NX);

    Assembler a(CODE_BASE);
    a.mov(R::rcx, 100);
    a.mov(R::r8, 0);
    Label top = a.label();
    // Slow store address (dependency chain) through one mapping, fast
    // load address through the other: the load hoists past the store
    // and must be squashed when the store resolves onto the frame.
    a.mov(R::rax, R::rdi);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax), R::rcx);   // store through DATA_BASE
    a.mov(R::rdx, Mem::at(R::rsi));   // aliasing load via ALIAS
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.vcpu(0).regs[REG_rdi] = DATA_BASE + 0x40;
    r.vcpu(0).regs[REG_rsi] = ALIAS + 0x40;
    r.finalizeCores();
    runToHalt(r);
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 5050ULL);
}

TEST(OooCoreTest, ReturnAddressStackPredictsReturns)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    progCallsAndStack(a);
    runOnCores(r, a);
    U64 rets = r.stats().get("core0/branches/indirect");
    U64 miss = r.stats().get("core0/branches/indirect_mispredicted");
    EXPECT_GT(rets, 100ULL);
    // Top-pointer-repair RAS (as on real K8): wrong-path pops/pushes
    // after leaf-branch mispredicts corrupt some slots, so recursive
    // fib sees a nonzero but bounded return mispredict rate.
    EXPECT_LT((double)miss / (double)rets, 0.35);
}

TEST(OooCoreTest, LoadHoistingFlushesOnViolation)
{
    SimConfig cfg = oooConfig();
    cfg.load_hoisting = true;
    BareMachine r(cfg);
    Assembler a(CODE_BASE);
    // Store with a slow-to-resolve address followed by a load of the
    // same location: hoisted loads must be squashed and re-run.
    a.movImm64(R::rbx, DATA_BASE);
    a.movStoreImm32(Mem::at(R::rbx), 1111);
    a.mov(R::rcx, 100);
    a.mov(R::r8, 0);
    Label top = a.label();
    // Slow address: chain of multiplies producing rbx again.
    a.mov(R::rax, R::rbx);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax), R::rcx);    // store (address late)
    a.mov(R::rdx, Mem::at(R::rbx));    // aliasing load (address early)
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    runOnCores(r, a);
    // Functional result must be exact despite speculation: sum of
    // rcx values 100..1.
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 5050ULL);
    EXPECT_GT(r.stats().get("core0/lsq/hoist_flushes"), 0ULL);
}

TEST(OooCoreTest, NoHoistingWaitsInstead)
{
    BareMachine r(oooConfig());  // K8 preset: hoisting off
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 50);
    a.mov(R::r8, 0);
    Label top = a.label();
    a.mov(Mem::at(R::rbx), R::rcx);
    a.mov(R::rdx, Mem::at(R::rbx));
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 1275ULL);  // 50+49+...+1
    EXPECT_EQ(r.stats().get("core0/lsq/hoist_flushes"), 0ULL);
}

TEST(OooCoreTest, DivideFaultIsPrecise)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    Label handler = a.newLabel();
    a.mov(R::rbx, 111);            // committed before the fault
    a.mov(R::rdx, 0);
    a.mov(R::rax, 5);
    a.mov(R::rcx, 0);
    a.div(R::rcx);                 // #DE
    a.mov(R::rbx, 999);            // must never commit
    a.hlt();
    a.bind(handler);
    a.pop(R::rsi);                 // fault word
    a.hlt();
    r.vcpu(0).event_callback = a.labelVa(handler);
    r.vcpu(0).kernel_sp = STACK_TOP - 0x1000;
    runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_rbx], 111ULL);
    EXPECT_EQ(r.vcpu(0).regs[REG_rsi] >> 48, (U64)GuestFault::DivideError);
}

TEST(OooCoreTest, StoreFaultOnReadOnlyPageLeavesPteClean)
{
    // The timing walk sets A/D only after the permission check, as the
    // functional walk does: a store that faults on a present read-only
    // page must not dirty its PTE.
    constexpr U64 RO_PAGE = 0x900000;  // above the test layout
    BareMachine r(oooConfig());
    r.map(RO_PAGE, PAGE_SIZE, Pte::US | Pte::NX);
    Assembler a(CODE_BASE);
    Label handler = a.newLabel();
    a.movImm64(R::rbx, RO_PAGE);
    a.mov(R::rax, 5);
    a.mov(Mem::at(R::rbx), R::rax);  // #PF (write)
    a.hlt();
    a.bind(handler);
    a.pop(R::rsi);                   // fault word
    a.hlt();
    r.vcpu(0).event_callback = a.labelVa(handler);
    r.vcpu(0).kernel_sp = STACK_TOP - 0x1000;
    runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_rsi] >> 48,
              (U64)GuestFault::PageFaultWrite);
    PageWalk pw = r.addressSpace().walk(r.root(), GuestVirt(RO_PAGE));
    ASSERT_TRUE(pw.present);
    EXPECT_EQ(r.physMem().read(pw.pte_addr[3], 8) & Pte::D, 0ULL);
    EXPECT_EQ(r.readGuest(RO_PAGE, 8), 0ULL);
}

TEST(OooCoreTest, SelfModifyingCodeFlushesPipeline)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    Label again = a.newLabel(), done = a.newLabel();
    Label site = a.newLabel();
    a.mov(R::rbx, 0);
    a.bind(again);
    a.bind(site);
    a.mov(R::rax, 1);
    a.inc(R::rbx);
    a.cmp(R::rbx, 2);
    a.jcc(COND_e, done);
    a.movLabel(R::rdx, site);
    a.mov(R::rcx, 2);
    a.mov8(Mem::at(R::rdx, 1), R::rcx);
    a.jmp(again);
    a.bind(done);
    a.hlt();
    runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_rax], 2ULL);
    EXPECT_GT(r.stats().get("bbcache/smc_invalidations"), 0ULL);
}

/** Code rewritten by BareMachine::load after it has run must execute
 *  as rewritten: the write invalidates its decoded blocks. */
class LoadOverCodeP : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LoadOverCodeP, RewrittenImageRunsNewBytes)
{
    SimConfig cfg = oooConfig();
    cfg.core = GetParam();
    BareMachine m(cfg);
    Assembler first(CODE_BASE);
    first.mov(R::rax, 1);
    first.hlt();
    runOnCores(m, first);
    ASSERT_EQ(m.vcpu(0).regs[REG_rax], 1ULL);

    Assembler second(CODE_BASE);
    second.mov(R::rax, 2);
    second.hlt();
    m.load(second);
    m.vcpu(0).running = true;
    runToHalt(m);
    EXPECT_EQ(m.vcpu(0).regs[REG_rax], 2ULL);
    EXPECT_GT(m.stats().get("bbcache/smc_invalidations"), 0ULL);
}

INSTANTIATE_TEST_SUITE_P(Cores, LoadOverCodeP,
                         ::testing::Values("seq", "ooo"));

TEST(OooCoreTest, EventDeliveryAtInstructionBoundary)
{
    BareMachine r(oooConfig());
    mapTestLayout(r);
    Assembler a(CODE_BASE);
    Label handler = a.newLabel(), spin = a.newLabel();
    a.mov(R::rax, 0);
    a.sti();
    a.bind(spin);
    a.inc(R::rax);
    a.cmp(R::rbx, 1);
    a.jcc(COND_ne, spin);
    a.hlt();
    a.bind(handler);
    a.add(R::rsp, 8);
    a.mov(R::rbx, 1);
    a.iretq();
    r.load(a);
    r.vcpu(0).event_callback = a.labelVa(handler);
    r.vcpu(0).kernel_sp = STACK_TOP - 0x1000;
    r.vcpu(0).regs[REG_rbx] = 0;
    r.finalizeCores();
    // Run a while, then raise the event.
    r.run(2000);
    r.vcpu(0).event_pending = true;
    r.run(98000);
    EXPECT_TRUE(r.allIdle());
    EXPECT_EQ(r.vcpu(0).regs[REG_rbx], 1ULL);
    EXPECT_GT(r.stats().get("core0/commit/events_delivered"), 0ULL);
}

TEST(OooCoreTest, DcacheMissesStallLoads)
{
    SimConfig cfg = oooConfig();
    BareMachine r(cfg);
    Assembler a(CODE_BASE);
    // Pointer-chase through a large stride to defeat the L1.
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 200);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 12);               // 4 KB stride: unique lines+pages
    a.add(R::rdx, R::rbx);
    a.add(R::rax, Mem::at(R::rdx));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    EXPECT_GT(r.stats().get("core0/dcache/misses"), 150ULL);
    EXPECT_GT(r.stats().get("core0/dtlb/misses"), 100ULL);
    EXPECT_GT(r.stats().get("core0/walker/walks"), 100ULL);
    // The independent misses overlap through the 8 MSHRs (memory-level
    // parallelism), so the bound is mem_latency * misses / mshr_count.
    EXPECT_GT(cycles, 200ULL * 112 / 8);
}

// ---------------------------------------------------------------------
// Skip-ahead scheduling
// ---------------------------------------------------------------------

TEST(OooCoreTest, SkipAheadCoversLongStalls)
{
    SimConfig cfg = oooConfig();     // commit checker stays on: every
    ASSERT_TRUE(cfg.skip_ahead);     // committed uop is lockstep-checked
    BareMachine r(cfg);
    Assembler a(CODE_BASE);
    serialMissChain(a);
    runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_rax], 0ULL);
    EXPECT_EQ(r.vcpu(0).regs[REG_rcx], 0ULL);
    EXPECT_GT(r.stats().get("core0/dcache/misses"), 50ULL);
    // The serial chain stalls the whole core for ~memory latency per
    // iteration; the fast path must absorb most of those cycles.
    EXPECT_GT(r.stats().get("core0/ooocore/skipped_cycles"), 1000ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/select_fast_skips"), 0ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/wakeup_broadcasts"), 0ULL);
    // Skipped cycles still count as simulated cycles.
    EXPECT_GT(r.stats().get("core0/cycles"),
              r.stats().get("core0/ooocore/skipped_cycles"));
}

TEST(OooCoreTest, SkipAheadIsDeterministic)
{
    // Identical guest program with skip-ahead on vs off must produce
    // bit-identical architectural results AND identical timing: same
    // final cycle count, same commit stream length. Only host work may
    // differ. (Per-stage stall counters are excluded by design: they
    // count evaluated cycles only, and skip-ahead evaluates fewer.)
    U64 cycles[2], rax[2], rsp[2], insns[2], uops[2], branches[2],
        skipped[2];
    for (int skip = 0; skip < 2; skip++) {
        SimConfig cfg = oooConfig();
        cfg.skip_ahead = (skip == 1);
        BareMachine r(cfg);
        Assembler a(CODE_BASE);
        serialMissChain(a);
        cycles[skip] = runOnCores(r, a);
        rax[skip] = r.vcpu(0).regs[REG_rax];
        rsp[skip] = r.vcpu(0).regs[REG_rsp];
        insns[skip] = r.stats().get("core0/commit/insns");
        uops[skip] = r.stats().get("core0/commit/uops");
        branches[skip] = r.stats().get("core0/branches/total");
        skipped[skip] = r.stats().get("core0/ooocore/skipped_cycles");
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(rax[0], rax[1]);
    EXPECT_EQ(rsp[0], rsp[1]);
    EXPECT_EQ(insns[0], insns[1]);
    EXPECT_EQ(uops[0], uops[1]);
    EXPECT_EQ(branches[0], branches[1]);
    EXPECT_EQ(skipped[0], 0ULL);
    EXPECT_GT(skipped[1], 0ULL);
}

// ---------------------------------------------------------------------
// Exact timing of the LSQ and select. Each test pins the simulated
// cycle count and the LSQ counters, so any change to which uop issues
// when, or to what a load forwards or waits for, shows up here.
// ---------------------------------------------------------------------

/** The figures an exact-timing test pins. */
struct Timing
{
    U64 cycles, replays, forwards, insns;
};

Timing
timingOf(BareMachine &r, U64 cycles)
{
    return {cycles, r.stats().get("core0/lsq/replays"),
            r.stats().get("core0/lsq/forwards"),
            r.stats().get("core0/commit/insns")};
}

void
expectTiming(const Timing &got, const Timing &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.replays, want.replays);
    EXPECT_EQ(got.forwards, want.forwards);
    EXPECT_EQ(got.insns, want.insns);
}

TEST(OooTiming, YoungestOfTwoCoveringStoresForwards)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 60);
    a.mov(R::r8, 0);
    Label top = a.label();
    a.mov(Mem::at(R::rbx), R::rcx);    // older store
    a.lea(R::rax, Mem::at(R::rcx, 1000));
    a.mov(Mem::at(R::rbx), R::rax);    // younger store, same bytes
    a.mov(R::rdx, Mem::at(R::rbx));    // must see the younger one
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 60ULL * 1000 + 60 * 61 / 2);
    expectTiming(timingOf(r, cycles), {1021, 42, 52, 424});
}

TEST(OooTiming, OlderPartialOverlapMakesCoveredLoadWait)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 60);
    a.mov(R::r8, 0);
    Label top = a.label();
    a.mov8(Mem::at(R::rbx, 1), R::rcx);  // older store, one byte inside
    a.mov(Mem::at(R::rbx), R::rcx);      // younger store covers the load
    a.mov(R::rdx, Mem::at(R::rbx));      // waits for the older store
    a.add(R::r8, R::rdx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_r8], 60ULL * 61 / 2);
    expectTiming(timingOf(r, cycles), {1158, 1418, 0, 364});
}

TEST(OooTiming, LsqRingsWrap)
{
    // 300 iterations of two stores and three loads: far more than the
    // K8's 44-entry LDQ and STQ, so both rings wrap many times.
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 0);
    a.mov(R::r8, 0);
    Label top = a.label();
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rcx);
    a.mov(R::rax, Mem::idx(R::rbx, R::rcx, 8));
    a.add(R::r8, R::rax);
    a.mov(R::rdx, R::rcx);
    a.and_(R::rdx, 15);
    a.add(R::r8, Mem::idx(R::rbx, R::rdx, 8, 0x1000));
    a.mov(Mem::idx(R::rbx, R::rdx, 8, 0x1000), R::r8);
    a.add(R::r8, Mem::idx(R::rbx, R::rcx, 8));
    a.inc(R::rcx);
    a.cmp(R::rcx, 300);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    expectTiming(timingOf(r, cycles), {7517, 886, 300, 3304});
}

TEST(OooTiming, LoadParksUntilOlderStoreResolves)
{
    // Without load hoisting, a load behind a store whose address waits
    // on a divide parks after its first attempt and issues the cycle
    // after the store resolves. Only loads and stores use the DTLB, so
    // its access count marks the cycle of each attempt: the load, the
    // store, then the load again.
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rsi, 3);
    a.mov(R::rax, 100);
    a.mov(R::rdx, 0);
    a.div(R::rsi);
    a.mov(Mem::idx(R::rbx, R::rax, 8), R::rsi);  // address waits on div
    a.mov(R::rcx, Mem::at(R::rbx, 0x1000));      // parks behind it
    a.hlt();
    mapTestLayout(r);
    r.load(a);
    r.finalizeCores();
    std::vector<U64> attempts;
    U64 cycle = 0;
    for (; !r.allIdle() && cycle < 100000; cycle++) {
        U64 before = r.stats().get("core0/dtlb/accesses");
        r.run(1);
        if (r.stats().get("core0/dtlb/accesses") != before)
            attempts.push_back(cycle);
    }
    ASSERT_TRUE(r.allIdle());
    EXPECT_EQ(r.readGuest(DATA_BASE + 33 * 8, 8), 3ULL);
    // The store resolves in cycle 657 and the load issues in 658.
    EXPECT_EQ(attempts, (std::vector<U64>{634, 657, 658}));
    EXPECT_EQ(r.stats().get("core0/lsq/replays/unknown_store_addr"), 1ULL);
    expectTiming(timingOf(r, cycle), {784, 1, 0, 8});
}

/**
 * Two loops. The first runs three multiply chains and a divide beside
 * their consumers, so the one multiplier and the one divider limit
 * issue. The second wakes three multiplies and twelve moves with one
 * load, more than the 3-wide issue of a lane, and the next iteration's
 * load address waits on the youngest multiply.
 */
void
mulDivMix(Assembler &a)
{
    a.mov(R::r8, 3);
    a.mov(R::r9, 5);
    a.mov(R::r10, 7);
    a.mov(R::rbx, 3);
    a.mov(R::rcx, 40);
    Label hazards = a.label();
    a.imul(R::r8, R::r8, 3);
    a.imul(R::r9, R::r9, 5);
    a.imul(R::r10, R::r10, 7);
    a.mov(R::rax, R::rcx);
    a.mov(R::rdx, 0);
    a.div(R::rbx);
    a.add(R::r11, R::rax);
    a.imul(R::r12, R::r11);
    a.add(R::r13, R::rdx);
    a.mov(R::rsi, R::r8);
    a.add(R::rsi, 1);
    a.add(R::rbp, R::r9);
    a.add(R::r14, R::r10);
    a.add(R::r14, R::r9);
    a.add(R::rsi, R::r10);
    a.add(R::r15, 1);
    a.dec(R::rcx);
    a.jcc(COND_ne, hazards);

    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rsi, 3);
    a.mov(R::rcx, 40);
    Label width = a.label();
    a.mov(R::rax, Mem::at(R::rbx));
    a.imul(R::r8, R::rax);
    a.imul(R::r9, R::rax);
    a.imul(R::r11, R::rax);
    for (int k = 0; k < 12; k++)
        a.mov(R::r10, R::rax);
    a.mov(R::rax, R::rcx);
    a.mov(R::rdx, 0);
    a.div(R::rsi);
    a.add(R::rbx, R::r11);  // memory is zero-filled: rbx stays put
    a.add(R::r15, 1);
    a.dec(R::rcx);
    a.jcc(COND_ne, width);
    a.hlt();
}

TEST(OooTiming, MulDivHazardAndIssueWidth)
{
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    mulDivMix(a);
    U64 cycles = runOnCores(r, a);
    EXPECT_EQ(r.vcpu(0).regs[REG_r15], 80ULL);
    expectTiming(timingOf(r, cycles), {2071, 0, 0, 1729});
}

TEST(OooTiming, WideFanOutWakesEveryConsumer)
{
    // One add, stuck behind a divide, produces a value and all three
    // flag groups for eleven consumers: flag readers (setcc, cmov, adc),
    // value readers spread over the integer lanes by least occupancy,
    // a multiply on the multiply lane, and two converts in the FP
    // queue. Its one broadcast must wake every one of them.
    BareMachine r(oooConfig());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rsi, 7);
    a.mov(R::rcx, 30);
    Label top = a.label();
    a.mov(R::rax, Mem::at(R::rbx));  // memory is zero-filled
    a.add(R::rax, R::rcx);
    a.mov(R::rdx, 0);
    a.div(R::rsi);
    a.add(R::rax, R::rdx);  // the producer: rcx / 7 + rcx % 7
    a.setcc(COND_ne, R::r12);
    a.cmovcc(COND_ns, R::r13, R::rax);
    a.adc(R::r11, 0);
    a.mov(R::r8, R::rax);
    a.lea(R::r9, Mem::at(R::rax, 1));
    a.add(R::r10, R::rax);
    a.sub(R::r14, R::rax);
    a.imul(R::rdi, R::rax);
    a.mov(R::rbp, R::rax);
    a.cvtsi2sd(X::xmm1, R::rax);
    a.cvtsi2sd(X::xmm2, R::rax);
    a.addsd(X::xmm0, X::xmm1);
    a.addsd(X::xmm0, X::xmm2);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.cvttsd2si(R::r15, X::xmm0);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    U64 sum = 0;
    for (U64 n = 1; n <= 30; n++)
        sum += n / 7 + n % 7;
    const U64 *regs = r.vcpu(0).regs;
    EXPECT_EQ(regs[REG_r10], sum);
    EXPECT_EQ(regs[REG_r14], (U64)0 - sum);
    EXPECT_EQ(regs[REG_r15], 2 * sum);
    EXPECT_EQ(regs[REG_r12], 1ULL);
    EXPECT_EQ(regs[REG_r13], 1ULL);  // the last (rcx = 1) value
    EXPECT_EQ(regs[REG_r9], 2ULL);
    EXPECT_EQ(regs[REG_r11], 0ULL);  // the add never carries
    expectTiming(timingOf(r, cycles), {1544, 0, 0, 665});
}

TEST(OooTiming, SmtThreadsTieOnSeqInOneQueue)
{
    // Two threads share one integer queue and take turns on a locked
    // add: the interlock keeps them in step, so their uops often sit
    // in the queue with equal sequence numbers, and select breaks the
    // tie by slot index. Thread t adds t+1, 100 + 5t times.
    SimConfig cfg = oooConfig();
    cfg.core = "smt";
    cfg.vcpu_count = 2;
    cfg.smt_threads = 2;
    cfg.int_iq_count = 1;
    cfg.int_iq_size = 24;
    BareMachine r(cfg);
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.imul(R::rcx, R::rdi, 5);
    a.add(R::rcx, 100);
    a.lea(R::rdx, Mem::at(R::rdi, 1));
    Label top = a.label();
    a.mov(R::rax, R::rdx);
    a.lockXadd(Mem::at(R::rbx), R::rax);
    a.imul(R::r8, R::rax, 3);
    a.imul(R::r9, R::rax, 5);
    a.imul(R::r10, R::r10, 7);
    a.add(R::r11, R::r8);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    U64 cycles = runOnCores(r, a);
    EXPECT_EQ(r.readGuest(DATA_BASE, 8), 100ULL * 1 + 105 * 2);
    expectTiming(timingOf(r, cycles), {2188, 693, 0, 1650});
}

// ---------------------------------------------------------------------
// Ring: the storage of the ROB, LDQ, STQ and fetch queue
// ---------------------------------------------------------------------

TEST(Ring, WrapsPastCapacity)
{
    Ring<int> r;
    r.resize(4);
    EXPECT_TRUE(r.empty());
    for (int v = 0; v < 4; v++)
        r[r.pushBack()] = v;
    EXPECT_TRUE(r.full());
    r.popFront();
    r.popFront();
    // The next two pushes take slots 0 and 1 again, behind slots 2, 3.
    EXPECT_EQ(r.pushBack(), 0);
    EXPECT_EQ(r.pushBack(), 1);
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.frontSlot(), 2);
    EXPECT_EQ(r.backSlot(), 1);
    EXPECT_EQ(r.front(), 2);
    for (int age = 0; age < 4; age++)
        EXPECT_EQ(r.slotAt(age), (2 + age) % 4);
}

TEST(Ring, PopBackRewindsToTheLastPushedSlot)
{
    Ring<int> r;
    r.resize(4);
    r.pushBack();
    r.pushBack();
    r.popFront();
    r.pushBack();
    int last = r.pushBack();  // slot 3
    r.popBack();
    EXPECT_EQ(r.size(), 2);
    EXPECT_FALSE(r.live(last));
    EXPECT_EQ(r.pushBack(), last);  // the squashed slot is reused
    last = r.pushBack();            // wraps to slot 0
    EXPECT_EQ(last, 0);
    r.popBack();
    EXPECT_EQ(r.backSlot(), 3);
    EXPECT_EQ(r.pushBack(), 0);
}

TEST(Ring, AgeNextPrevAcrossTheWrap)
{
    Ring<int> r;
    r.resize(5);
    for (int i = 0; i < 3; i++) {
        r.pushBack();
        r.popFront();
    }
    for (int i = 0; i < 4; i++)
        r.pushBack();  // slots 3, 4, 0, 1
    EXPECT_EQ(r.next(4), 0);
    EXPECT_EQ(r.prev(0), 4);
    EXPECT_EQ(r.next(1), 2);
    EXPECT_EQ(r.prev(3), 2);
    EXPECT_EQ(r.age(3), 0);
    EXPECT_EQ(r.age(4), 1);
    EXPECT_EQ(r.age(0), 2);
    EXPECT_EQ(r.age(1), 3);
    EXPECT_EQ(r.age(2), 4);  // the one free slot
    EXPECT_TRUE(r.live(1));
    EXPECT_FALSE(r.live(2));
    EXPECT_FALSE(r.live(-1));
    EXPECT_FALSE(r.live(5));
    // Walking next() from the front visits the live slots in age order.
    int slot = r.frontSlot();
    for (int age = 0; age < r.size(); age++, slot = r.next(slot))
        EXPECT_EQ(r.age(slot), age);
}

TEST(Ring, ClearRestartsAllocationAtSlotZero)
{
    Ring<int> r;
    r.resize(4);
    for (int i = 0; i < 3; i++)
        r.pushBack();
    r.popFront();
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.frontSlot(), 0);
    EXPECT_EQ(r.pushBack(), 0);
    EXPECT_EQ(r.pushBack(), 1);
}

}  // namespace
}  // namespace ptl
