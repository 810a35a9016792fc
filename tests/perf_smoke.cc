/**
 * @file
 * Fast perf smoke test (`ctest -L perf`): runs a hash-and-update
 * compute kernel briefly on the out-of-order core with the per-cycle
 * invariant checker enabled and the translation cache's shadow-walk
 * verification live, checks that the scheduler's
 * fast paths engage, and bounds OoO simulation speed relative to the
 * functional engine. Catches a translation-cache, pipeline or speed
 * regression in seconds, without a perfbench run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "guest_harness.h"

namespace ptl {
namespace {

/** A hash-and-update kernel of `iters` iterations: real memory
 *  traffic and data-dependent branches. */
void
hashKernel(Assembler &a, U64 iters)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, iters);
    a.mov(R::rax, 12345);
    Label top = a.label();
    a.mov(R::rdx, R::rax);
    a.and_(R::rdx, 0xFFF8);
    a.mov(R::rsi, Mem::idx(R::rbx, R::rdx, 1));
    a.add(R::rax, R::rsi);
    a.imul(R::rax, R::rax, 0x9E3779B9);
    a.mov(Mem::idx(R::rbx, R::rdx, 1), R::rax);
    a.test(R::rax, 0x100);
    Label skip = a.newLabel();
    a.jcc(COND_e, skip);
    a.add(R::rax, 7);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

TEST(PerfSmoke, BenchKernelShortRunUnderVerification)
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    cfg.verify = true;
    BareMachine r(cfg);

    Assembler a(CODE_BASE);
    hashKernel(a, 5000);
    runOnCores(r, a, 2'000'000);

    // The loop ran to completion and the functional path served the
    // vast majority of its translations from the cache.
    EXPECT_EQ(r.vcpu(0).regs[REG_rcx], 0ULL);
    const TranslationCache &tc = r.addressSpace().transCache();
    EXPECT_GT(tc.hits(), 10'000ULL);
    EXPECT_LT(tc.misses(), tc.hits() / 10);
    ASSERT_TRUE(tc.shadowEnabled());
    EXPECT_GT(r.stats().get("transcache/shadow_checks"), 0ULL);
    // The invariant checker actually audited the pipeline.
    EXPECT_GT(r.stats().get("core0/verify/checks"), 0ULL);
}

/** The hot-path machinery must actually engage on a stall-heavy
 *  run: skip-ahead absorbs quiesced cycles, select skips clean
 *  queues, and completions broadcast to waiting consumers. */
TEST(PerfSmoke, SchedulerFastPathsEngage)
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    BareMachine r(cfg);
    Assembler a(CODE_BASE);
    serialMissChain(a);
    runOnCores(r, a);
    EXPECT_GT(r.stats().get("core0/ooocore/skipped_cycles"), 0ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/select_fast_skips"), 0ULL);
    EXPECT_GT(r.stats().get("core0/ooocore/wakeup_broadcasts"), 0ULL);
}

// Sanitizer instrumentation slows simulation ~5x; the wall-clock
// bound below must only run in plain optimized builds. CMake defines
// PTL_PERF_SANITIZED for any PTL_SANITIZE preset; the compiler-macro
// checks catch sanitizers injected via raw flags.
#if !defined(PTL_PERF_SANITIZED)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PTL_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(undefined_behavior_sanitizer)
#define PTL_PERF_SANITIZED 1
#endif
#endif
#endif
#if !defined(NDEBUG) || defined(PTL_PERF_SANITIZED)
constexpr bool TIMED_BUILD = false;
#else
constexpr bool TIMED_BUILD = true;
#endif

/** Guest instructions per host second for hashKernel(`iters`) on
 *  `cfg`'s core, or on the functional engine; set-up is not timed. */
double
kernelInsnsPerSec(const SimConfig &cfg, U64 iters, bool functional)
{
    BareMachine m(cfg);
    mapTestLayout(m);
    Assembler a(CODE_BASE);
    hashKernel(a, iters);
    m.load(a);
    std::unique_ptr<FunctionalEngine> engine;
    if (functional) {
        engine = std::make_unique<FunctionalEngine>(
            m.vcpu(0), m.addressSpace(), m.bbCache(), m, m.stats(), "fn/");
    } else {
        m.finalizeCores();
    }
    auto t0 = std::chrono::steady_clock::now();
    if (functional) {
        while (!engine->stepInsn(SimCycle(0)).idle) {
        }
    } else {
        runToHalt(m, 30'000'000);
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return (double)m.stats().get(functional ? "fn/commit/insns"
                                            : "core0/commit/insns")
           / secs;
}

/**
 * Speed bound: OoO guest insns/s divided by functional-engine guest
 * insns/s on the same kernel, both measured in this process, must stay
 * above RATIO_FLOOR. Host speed cancels out of the ratio, so no number
 * recorded on another host is involved. Each engine's rate is the best
 * of three runs, which drops runs slowed by other processes. The test
 * is RUN_SERIAL in ctest. Wall-clock is only meaningful in optimized,
 * uninstrumented builds, so debug/sanitizer builds skip.
 *
 * How the floor was set, on a 4-vCPU x86-64 Linux VM with g++ 12, after
 * the functional engine began tracking its pending registers in
 * bitmasks (about 2.7x faster on this kernel; the same procedure gave
 * RelWithDebInfo ratios of 0.200-0.313 before it): RelWithDebInfo gave
 * 0.0785-0.123 over 16 runs (median 0.092) and Release gave
 * 0.0587-0.113 over 16 runs (median 0.089). Four runs of each build
 * ran in parallel to load the host. The floor sits 25% below the
 * lowest ratio seen, so it fails on an OoO slowdown of roughly half
 * relative to the functional engine, not on host noise.
 */
constexpr double RATIO_FLOOR = 0.044;

TEST(PerfSmoke, OooSpeedRatioToFunctionalAboveFloor)
{
    if (!TIMED_BUILD)
        GTEST_SKIP() << "the speed ratio requires a plain optimized build";
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    double ooo = 0, functional = 0;
    for (int rep = 0; rep < 3; rep++) {
        ooo = std::max(ooo, kernelInsnsPerSec(cfg, 30'000, false));
        functional =
            std::max(functional, kernelInsnsPerSec(cfg, 30'000, true));
    }
    double ratio = ooo / functional;
    std::printf("ooo %.0f insns/s, functional %.0f insns/s, ratio %.4f\n",
                ooo, functional, ratio);
    EXPECT_GE(ratio, RATIO_FLOOR)
        << "OoO simulation slowed relative to the functional engine";
}

}  // namespace
}  // namespace ptl
