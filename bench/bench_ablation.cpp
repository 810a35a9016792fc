/**
 * Ablation benchmarks for the design choices DESIGN.md calls out
 * (google-benchmark; the interesting output is the user counters,
 * which report *simulated* cycles — the architectural effect — while
 * the wall-clock column shows the simulation-speed effect):
 *
 *  - basic block cache: the paper notes the BB cache "simply exists to
 *    speed up the simulation"; ablated by invalidating translations
 *    every block, forcing re-decode (architecturally invisible:
 *    committed instruction counts must match).
 *  - branch predictor family: bimodal vs gshare vs hybrid vs static,
 *    measured as simulated cycles to finish a branchy kernel.
 *  - load hoisting on/off (the K8 preset disables it).
 *  - instant-visibility vs MOESI coherence on a two-core ping-pong.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

namespace ptl {
namespace {

/** Cycle bound for runs that are expected to halt well before it. */
constexpr U64 MAX_CYCLES = 2'000'000'000;

/** Load `kernel` on every VCPU and build the cores. */
void
start(BareMachine &m, void (*kernel)(Assembler &))
{
    loadBareKernel(m, kernel);
    m.finalizeCores();
}

/** Run to completion, invalidating every translated block each 64
 *  cycles; returns simulated cycles. */
U64
runThrashingBbcache(BareMachine &m)
{
    U64 c = 0;
    while (!m.allIdle()) {
        c += m.run(64);
        // Invalidation frees the blocks the cores are fetching from, so
        // squash their in-flight work, as a self-modifying-code flush
        // does.
        m.bbCache().invalidateAll();
        for (int i = 0; i < m.coreCount(); i++)
            m.core(i).flushPipeline();
    }
    return c;
}

void
branchyKernel(Assembler &a)
{
    a.mov(R::rbx, 99);
    a.mov(R::rcx, 30000);
    a.mov(R::rdx, 0);
    Label top = a.label();
    a.mov(R::rax, R::rbx);
    a.shl(R::rax, 13);
    a.xor_(R::rbx, R::rax);
    a.mov(R::rax, R::rbx);
    a.shr(R::rax, 7);
    a.xor_(R::rbx, R::rax);
    a.test(R::rbx, 3);
    Label skip = a.newLabel();
    a.jcc(COND_ne, skip);
    a.inc(R::rdx);
    a.bind(skip);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Thrashing invalidates every translated block each 64 cycles, forcing
 *  constant re-decode. Architecturally invisible: the same instructions
 *  commit; only the host-time column (simulation speed) degrades. */
void
bbcacheAblation(benchmark::State &state, bool thrash)
{
    U64 cycles = 0, insns = 0;
    for (auto _ : state) {
        BareMachine m(bareBenchConfig());
        start(m, branchyKernel);
        cycles = thrash ? runThrashingBbcache(m) : m.run(MAX_CYCLES);
        insns = m.stats().get("core0/commit/insns");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["guest_insns"] = (double)insns;
}

void
BM_BbCacheOn(benchmark::State &state)
{
    bbcacheAblation(state, false);
}
void
BM_BbCacheThrashed(benchmark::State &state)
{
    bbcacheAblation(state, true);
}

void
predictorAblation(benchmark::State &state, PredictorKind kind)
{
    U64 cycles = 0, mispredicts = 0;
    for (auto _ : state) {
        SimConfig cfg = bareBenchConfig();
        cfg.predictor = kind;
        BareMachine m(cfg);
        start(m, branchyKernel);
        cycles = m.run(MAX_CYCLES);
        mispredicts = m.stats().get("core0/branches/mispredicted");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["mispredicts"] = (double)mispredicts;
}

/** Serialized pointer-chase: every load address depends on the
 *  previous load's value, so the pipeline drains on each D-miss and
 *  skip-ahead has long quiesced stretches to jump. */
void
missChainKernel(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 2000);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.and_(R::rdx, 63);
    a.shl(R::rdx, 13);               // 8 KB stride over a 512 KB window
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);           // serialize on the previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);           // zero-filled memory: rax stays 0
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Skip-ahead on/off must be architecturally invisible — identical
 *  sim_cycles — while the wall-clock column shows the speedup from
 *  not evaluating quiesced stall cycles. evaluated_cycles reports how
 *  many cycles actually ran through the pipeline stages; the rest were
 *  skipped on the core's quiesced fast path, which BareMachine::run
 *  jumps in one step. */
void
skipAheadAblation(benchmark::State &state, bool skip)
{
    U64 cycles = 0, evaluated = 0;
    for (auto _ : state) {
        // Machine setup (32 MB guest memory init) dwarfs the
        // simulation itself here; measure only the run loop.
        state.PauseTiming();
        SimConfig cfg = bareBenchConfig();
        cfg.skip_ahead = skip;
        auto m = std::make_unique<BareMachine>(cfg);
        start(*m, missChainKernel);
        state.ResumeTiming();
        cycles = m->run(MAX_CYCLES);
        state.PauseTiming();
        evaluated = m->stats().get("core0/cycles")
                    - m->stats().get("core0/ooocore/skipped_cycles");
        m.reset();
        state.ResumeTiming();
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["evaluated_cycles"] = (double)evaluated;
}

void
BM_SkipAheadOn(benchmark::State &state)
{
    skipAheadAblation(state, true);
}
void
BM_SkipAheadOff(benchmark::State &state)
{
    skipAheadAblation(state, false);
}

void
BM_PredictorHybrid(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Hybrid);
}
void
BM_PredictorGshare(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Gshare);
}
void
BM_PredictorBimodal(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::Bimodal);
}
void
BM_PredictorNotTaken(benchmark::State &state)
{
    predictorAblation(state, PredictorKind::NotTaken);
}

void
hoistKernel(Assembler &a)
{
    // Stores with slowly-resolving addresses followed by independent
    // loads: hoisting lets the loads start early.
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 20000);
    Label top = a.label();
    a.mov(R::rax, R::rbx);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.imul(R::rax, R::rax, 1);
    a.mov(Mem::at(R::rax, 0x100), R::rcx);      // slow-address store
    a.mov(R::rdx, Mem::at(R::rbx, 0x200));      // independent load
    a.add(R::rdx, Mem::at(R::rbx, 0x208));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
hoistAblation(benchmark::State &state, bool hoisting)
{
    U64 cycles = 0, flushes = 0;
    for (auto _ : state) {
        SimConfig cfg = bareBenchConfig();
        cfg.load_hoisting = hoisting;
        BareMachine m(cfg);
        start(m, hoistKernel);
        cycles = m.run(MAX_CYCLES);
        flushes = m.stats().get("core0/lsq/hoist_flushes");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["hoist_flushes"] = (double)flushes;
}

void
BM_LoadHoistingOn(benchmark::State &state)
{
    hoistAblation(state, true);
}
void
BM_LoadHoistingOff(benchmark::State &state)
{
    hoistAblation(state, false);
}

/** Two cores ping-pong one line with locked increments. */
void
pingPongKernel(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 2000);
    Label top = a.label();
    a.lockInc(Mem::at(R::rbx));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

void
coherenceAblation(benchmark::State &state, CoherenceKind kind)
{
    U64 cycles = 0, xfers = 0;
    for (auto _ : state) {
        SimConfig cfg = bareBenchConfig();
        cfg.coherence = kind;
        cfg.vcpu_count = 2;
        BareMachine m(cfg);
        start(m, pingPongKernel);
        cycles = m.run(MAX_CYCLES);
        xfers = m.stats().get("coherence/cache_to_cache_transfers");
    }
    state.counters["sim_cycles"] = (double)cycles;
    state.counters["c2c_transfers"] = (double)xfers;
}

void
BM_CoherenceInstant(benchmark::State &state)
{
    coherenceAblation(state, CoherenceKind::InstantVisibility);
}
void
BM_CoherenceMoesi(benchmark::State &state)
{
    coherenceAblation(state, CoherenceKind::Moesi);
}

BENCHMARK(BM_BbCacheOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BbCacheThrashed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkipAheadOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkipAheadOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorHybrid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorGshare)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorBimodal)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictorNotTaken)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadHoistingOn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadHoistingOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoherenceInstant)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CoherenceMoesi)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ptl

BENCHMARK_MAIN();
