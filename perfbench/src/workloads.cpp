#include "workloads.h"

#include <chrono>
#include <cstring>
#include <numeric>

#include "kernel/guestkernel.h"
#include "kernel/guestlib.h"
#include "lib/logging.h"
#include "workload/k8preset.h"

namespace perfbench {

using namespace ptl;

namespace {

/** Simulated-cycle cap for one run: far beyond any workload here, so a
 *  run that reaches it has hung and fails the shutdown check. */
constexpr U64 MAX_RUN_CYCLES = 4'000'000'000ULL;

/** Figure 2's snapshot cadence (bench/fig2_cycles_in_mode.cpp). */
constexpr U64 FIG2_SNAPSHOT_INTERVAL = 500'000;

/** The rsync file set. It is the same for every benchmark seed, so the
 *  simulated work of a run never depends on the seed. */
FileSetParams
rsyncFiles(Scale scale)
{
    FileSetParams files;
    files.file_count = scale == Scale::Full ? 8 : 2;
    files.mean_file_bytes = 6144;
    files.seed = 42;
    return files;
}

// ---- memchase layout (inside the USER_DATA region) ----
constexpr U64 LINE_BYTES = 64;
constexpr U64 STREAM_BYTES = 1 << 20;

/** Working set of the chase: 8x the K8 L2. */
U64
chaseBytes(const SimConfig &cfg)
{
    return 8 * cfg.l2.size_bytes;
}

U64
chaseSteps(Scale scale)
{
    return scale == Scale::Full ? 80'000 : 4'000;
}

U64
fnv1aWords(const std::vector<U64> &words)
{
    U64 h = 0xcbf29ce484222325ULL;
    for (U64 w : words) {
        for (int b = 0; b < 8; b++) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** Attach the K8 profiling structures to native mode, exactly as
 *  makeNativeTrial does for rsync. */
struct NativeProfiling
{
    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<BranchPredictor> predictor;

    void
    attach(Machine &machine)
    {
        hierarchy = std::make_unique<MemoryHierarchy>(
            machine.config(), machine.addressSpace(), machine.stats(),
            "native/vcpu0/");
        predictor = std::make_unique<BranchPredictor>(
            machine.config(), machine.stats(), "native/vcpu0/");
        machine.nativeEngine(0).attachProfiling(hierarchy.get(),
                                                predictor.get());
        machine.registerExtraTlbFlush(hierarchy.get());
        machine.setMode(Machine::Mode::Native);
    }
};

class RsyncOooDomain final : public Domain
{
  public:
    RsyncOooDomain(Scale scale, bool traced)
    {
        SimConfig cfg = SimConfig::preset("k8");
        cfg.core = traced ? "ooo-traced" : "ooo";
        cfg.snapshot_interval = FIG2_SNAPSHOT_INTERVAL;
        bench = std::make_unique<RsyncBench>(cfg, rsyncFiles(scale));
    }

    Machine &machine() override { return bench->machine(); }
    Engine engine() const override { return Engine::Ooo; }

    bool
    selfCheckPassed(const Machine::RunResult &r) const override
    {
        return r.exit_code == 0;   // per-file checksum mismatches
    }

  private:
    std::unique_ptr<RsyncBench> bench;
};

class RsyncNativeDomain final : public Domain
{
  public:
    explicit RsyncNativeDomain(Scale scale)
        : trial(makeNativeTrial(rsyncFiles(scale)))
    {
    }

    Machine &machine() override { return trial->bench->machine(); }
    Engine engine() const override { return Engine::Native; }

    bool
    selfCheckPassed(const Machine::RunResult &r) const override
    {
        return r.exit_code == 0;
    }

  private:
    std::unique_ptr<NativeTrial> trial;
};

/**
 * The guest chases a seeded Sattolo cycle of 64-byte lines with
 * dependent loads, storing each pointer into a 1 MB stream buffer as
 * it goes, and exits with the final pointer as its exit code.
 */
class MemchaseDomain final : public Domain
{
  public:
    MemchaseDomain(U64 seed, Scale scale, bool traced, Engine eng)
        : engine_(eng)
    {
        SimConfig cfg = SimConfig::preset(eng == Engine::Ooo ? "k8"
                                                             : "k8-native");
        cfg.core = eng == Engine::Native ? "seq"
                   : traced              ? "ooo-traced"
                                         : "ooo";
        const U64 chase_bytes = chaseBytes(cfg);
        const U64 stream_va = USER_DATA_VA + chase_bytes;
        const U64 steps = chaseSteps(scale);

        machine_ = std::make_unique<Machine>(cfg);
        builder = std::make_unique<KernelBuilder>(
            machine_->addressSpace(), machine_->vcpu(0),
            machine_->timerPeriodCycles());
        builder->setUserDataBytes(chase_bytes + STREAM_BYTES);
        emitGuest(stream_va, steps);
        builder->build();
        machine_->finalizeCores();
        if (eng == Engine::Native)
            native.attach(*machine_);
        expected = writeCycle(seed, chase_bytes, steps);
    }

    Machine &machine() override { return *machine_; }
    Engine engine() const override { return engine_; }

    bool
    selfCheckPassed(const Machine::RunResult &r) const override
    {
        return r.exit_code == expected;
    }

  private:
    void
    emitGuest(U64 stream_va, U64 steps)
    {
        Assembler &ua = builder->userAsm();
        GuestLib lib(ua);
        Label skip = ua.newLabel();
        ua.jmp(skip);
        lib.emitRuntime();
        ua.bind(skip);
        Label entry = ua.label();
        ua.movImm64(R::rdi, USER_DATA_VA);      // line 0 starts the cycle
        ua.movImm64(R::rbx, stream_va);
        ua.movImm64(R::rdx, stream_va + STREAM_BYTES);
        ua.movImm64(R::rcx, steps);
        Label loop = ua.label();
        ua.mov(R::rdi, Mem::at(R::rdi));        // dependent load
        ua.mov(Mem::at(R::rbx), R::rdi);        // streaming store
        ua.add(R::rbx, 8);
        ua.cmp(R::rbx, R::rdx);
        Label no_wrap = ua.newLabel();
        ua.jcc(COND_b, no_wrap);
        ua.sub(R::rbx, (S32)STREAM_BYTES);
        ua.bind(no_wrap);
        ua.dec(R::rcx);
        ua.jcc(COND_ne, loop);
        lib.syscall(GSYS_exit);                 // exit code = rdi
        builder->setInitTask(ua.labelVa(entry), 0);
    }

    /** Write the cycle into guest memory; return the pointer a host
     *  walk of `steps` steps from line 0 ends on. */
    U64
    writeCycle(U64 seed, U64 chase_bytes, U64 steps)
    {
        const U64 lines = chase_bytes / LINE_BYTES;
        std::vector<U64> next(lines);
        std::iota(next.begin(), next.end(), 0);
        U64 rng = seed;
        for (U64 i = lines - 1; i > 0; i--)   // Sattolo: one cycle
            std::swap(next[i], next[splitmix64(rng) % i]);

        std::vector<U8> image(chase_bytes, 0);
        for (U64 i = 0; i < lines; i++) {
            U64 va = USER_DATA_VA + next[i] * LINE_BYTES;
            std::memcpy(&image[i * LINE_BYTES], &va, sizeof va);
        }
        Context kctx;
        kctx.cr3 = builder->taskCr3(0);
        kctx.kernel_mode = true;
        GuestCopy g = guestCopyOut(machine_->addressSpace(), kctx,
                                   GuestVirt(USER_DATA_VA), image.data(),
                                   image.size());
        if (g.copied != image.size())
            fatal("memchase: could not write the pointer cycle");

        U64 line = 0;
        for (U64 s = 0; s < steps; s++)
            line = next[line];
        return USER_DATA_VA + line * LINE_BYTES;
    }

    Engine engine_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<KernelBuilder> builder;
    NativeProfiling native;
    U64 expected = 0;
};

}  // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "rsync-ooo", "rsync-native", "memchase-ooo"};
    return names;
}

Engine
workloadEngine(const std::string &workload)
{
    return workload == "rsync-native" ? Engine::Native : Engine::Ooo;
}

std::string
describeWorkload(const std::string &workload, Scale scale)
{
    if (workload == "memchase-ooo") {
        return strprintf("Sattolo pointer chase, %llu dependent loads over "
                         "%llu MB (8x the K8 L2) beside a 1 MB store "
                         "stream, K8 out-of-order core",
                         (unsigned long long)chaseSteps(scale),
                         (unsigned long long)(chaseBytes(
                                                  SimConfig::preset("k8"))
                                              >> 20));
    }
    FileSetParams files = rsyncFiles(scale);
    return strprintf("rsync-over-ssh, %d files x %llu bytes mean (file-set "
                     "seed %llu for every benchmark seed), %s",
                     files.file_count,
                     (unsigned long long)files.mean_file_bytes,
                     (unsigned long long)files.seed,
                     workload == "rsync-ooo"
                         ? "K8 out-of-order core, Figure 2 snapshot cadence"
                         : "functional engine with K8 profiling structures");
}

std::unique_ptr<Domain>
buildDomain(const std::string &workload, U64 seed, Scale scale, bool traced,
            bool other_engine)
{
    Engine eng = workloadEngine(workload);
    if (other_engine)
        eng = eng == Engine::Ooo ? Engine::Native : Engine::Ooo;
    if (workload == "memchase-ooo")
        return std::make_unique<MemchaseDomain>(seed, scale, traced, eng);
    if (workload == "rsync-ooo" || workload == "rsync-native") {
        if (eng == Engine::Native)
            return std::make_unique<RsyncNativeDomain>(scale);
        return std::make_unique<RsyncOooDomain>(scale, traced);
    }
    fatal("unknown workload '%s'", workload.c_str());
}

Machine::RunResult
Domain::run(std::vector<double> &slice_s)
{
    const U64 slice = engine() == Engine::Ooo ? SLICE_CYCLES : MAX_RUN_CYCLES;
    Machine::RunResult total;
    while (total.cycles < MAX_RUN_CYCLES) {
        auto t0 = std::chrono::steady_clock::now();
        Machine::RunResult r = machine().run(slice);
        slice_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
        total.cycles += r.cycles;
        total.shutdown = r.shutdown;
        total.stalled = r.stalled;
        total.exit_code = r.exit_code;
        if (r.shutdown || r.stalled)
            break;
    }
    return total;
}

std::string
Domain::statsPrefix() const
{
    return engine() == Engine::Ooo ? "core0/" : "native/vcpu0/";
}

ModelCounts
Domain::modelCounts()
{
    const StatsTree &s = machine().stats();
    const std::string p = statsPrefix();
    const bool native = engine() == Engine::Native;
    ModelCounts m;
    m.cycles = native ? s.get(p + "profile/modeled_cycles")
                      : machine().timeKeeper().cycle().raw();
    m.insns = s.get(p + "commit/insns");
    m.uops = s.get(p + (native ? "commit/k8ops" : "commit/uops"));
    m.l1d_misses = s.get(p + "dcache/misses");
    m.l1d_accesses = s.get(p + "dcache/accesses");
    m.branches = s.get(p + "branches/cond");
    m.mispredicts = s.get(p + "branches/mispredicted");
    m.dtlb_misses = s.get(p + "dtlb/misses");
    return m;
}

U64
Domain::digest()
{
    ModelCounts m = modelCounts();
    return fnv1aWords({machine().timeKeeper().cycle().raw(), m.cycles,
                       m.insns, m.uops, m.l1d_misses, m.mispredicts,
                       m.dtlb_misses});
}

}  // namespace perfbench
