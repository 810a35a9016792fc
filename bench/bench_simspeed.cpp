/**
 * Simulation throughput microbenchmarks (google-benchmark).
 *
 * The paper reports 415,540 simulated cycles per second for the full
 * K8-configured out-of-order model on 2.2 GHz host silicon (Section 5:
 * 1.55B cycles in ~62 minutes). These benchmarks measure this
 * reproduction's cycles/second and instructions/second for each engine
 * (out-of-order, sequential, native/functional) on a self-contained
 * compute kernel, reported via user counters.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/seqcore.h"
#include "kernel/guestkernel.h"
#include "kernel/guestlib.h"
#include "lib/rng.h"
#include "mem/membackend.h"
#include "sys/machine.h"
#include "xasm/assembler.h"

namespace ptl {
namespace {

/** The measured kernel: a hash-and-update loop with real memory
 *  traffic and data-dependent branches. */
void
computeKernel(Assembler &a)
{
    Label restart = a.newLabel();
    a.bind(restart);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 20000);
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
    a.jmp(restart);   // run forever; the harness bounds cycles
}

void
runCore(benchmark::State &state, const char *core_name)
{
    SimConfig cfg = bareBenchConfig();
    cfg.core = core_name;
    BareMachine m(cfg);
    loadBareKernel(m, computeKernel);
    m.finalizeCores();

    U64 now = 0;
    for (auto _ : state)
        now += m.run(10000);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        (double)now, benchmark::Counter::kIsRate);
    state.counters["guest_insns_per_s"] = benchmark::Counter(
        (double)m.stats().get("core0/commit/insns"),
        benchmark::Counter::kIsRate);
    state.counters["ipc"] =
        (double)m.stats().get("core0/commit/insns") / (double)now;
}

void
BM_OooCore(benchmark::State &state)
{
    runCore(state, "ooo");
}

void
BM_SeqCore(benchmark::State &state)
{
    runCore(state, "seq");
}

void
BM_NativeFunctional(benchmark::State &state)
{
    BareMachine m(bareBenchConfig());
    loadBareKernel(m, computeKernel);
    FunctionalEngine engine(m.vcpu(0), m.addressSpace(), m.bbCache(), m,
                            m.stats(), "");
    U64 insns = 0;
    for (auto _ : state) {
        for (int i = 0; i < 10000; i++) {
            FunctionalEngine::StepResult r =
                engine.stepInsn(SimCycle(insns));
            insns += (U64)r.insns;
        }
    }
    state.counters["guest_insns_per_s"] = benchmark::Counter(
        (double)insns, benchmark::Counter::kIsRate);
}

/**
 * Raw memory-backend request throughput: how much the timing model at
 * the bottom of the hierarchy costs per access, per model. The miss
 * path calls request() once per line fill, so this bounds the
 * hierarchy-side overhead of swapping the flat latency for the
 * banked-DRAM or eDRAM+PCM models.
 */
void
BM_MemBackend(benchmark::State &state, MemBackendKind kind)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.membackend.kind = kind;
    StatsTree stats;
    std::unique_ptr<MemBackend> backend =
        makeMemBackend(cfg, stats, "core0/");
    // Pre-generated mixed trace so the loop measures the backend, not
    // the generator: 3/4 reads, line-granular, multi-bank.
    Rng rng(11);
    std::vector<std::pair<U64, bool>> trace;
    trace.reserve(4096);
    for (int i = 0; i < 4096; i++)
        trace.emplace_back(rng.below(1 << 22) * 64, rng.chance(1, 4));
    U64 now = 0, sink = 0;
    for (auto _ : state) {
        for (const auto &[addr, is_write] : trace) {
            sink ^= backend->request(GuestPhys(addr), is_write, SimCycle(now)).raw();
            now += 7;
        }
        backend->drainTo(SimCycle(now));
    }
    benchmark::DoNotOptimize(sink);
    state.counters["requests_per_s"] = benchmark::Counter(
        (double)state.iterations() * (double)trace.size(),
        benchmark::Counter::kIsRate);
}

/**
 * Idle-dominated full-system workload: the guest spends ~99% of its
 * virtual time blocked in sleep(1) waiting for the next timer tick.
 * The event kernel's idle fast-forward jumps straight to the queue
 * head instead of ticking cores through dead cycles, so simulated
 * cycles/second here should be far above the busy-loop core numbers.
 */
void
BM_IdleHeavyMachine(benchmark::State &state)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.core_freq_hz = 10'000'000;
    cfg.timer_hz = 1000;
    cfg.guest_mem_bytes = 32 << 20;
    Machine machine(cfg);
    KernelBuilder builder(machine.addressSpace(), machine.vcpu(0),
                          machine.timerPeriodCycles());
    Assembler &ua = builder.userAsm();
    GuestLib lib(ua);
    Label entry = ua.newLabel();
    Label skip = ua.newLabel();
    ua.jmp(skip);
    lib.emitRuntime();
    ua.bind(skip);
    ua.bind(entry);
    Label forever = ua.label();
    ua.mov(R::rdi, 1);
    lib.syscall(GSYS_sleep);
    ua.jmp(forever);
    builder.setInitTask(ua.labelVa(entry), 0);
    builder.build();
    machine.finalizeCores();

    const SimCycle start = machine.timeKeeper().cycle();
    for (auto _ : state)
        machine.run(1'000'000);
    U64 cycles = (machine.timeKeeper().cycle() - start).raw();
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        (double)cycles, benchmark::Counter::kIsRate);
    state.counters["events_per_mcycle"] =
        (double)machine.stats().get("eventq/fired") * 1e6
        / (double)std::max<U64>(1, cycles);
}

BENCHMARK(BM_OooCore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeqCore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NativeFunctional)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IdleHeavyMachine)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MemBackend, fixed, MemBackendKind::Fixed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MemBackend, banked, MemBackendKind::BankedDram)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MemBackend, hybrid, MemBackendKind::Hybrid)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ptl

BENCHMARK_MAIN();
