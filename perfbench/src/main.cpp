/**
 * perfbench: one workload of the simulator-speed benchmark, in one
 * single-threaded process.
 *
 *   perfbench --workload rsync-ooo|rsync-native|memchase-ooo
 *             --seed N --seconds S --trace 0|1
 *             [--scale full|tiny] [--digest-file PATH]
 *
 * Each iteration builds a fresh domain (timed as setup_s), runs it
 * from boot to shutdown with Machine::run (timed as run_s) and checks
 * it. Iterations repeat until about S seconds have gone. With
 * --trace 0 the last stdout line is a JSON object with the end-to-end
 * metrics; with --trace 1 untraced and traced iterations alternate,
 * the layer probes and the Table 1 twin run once, and the JSON object
 * holds the per-layer metrics. See perfbench/README.md.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "probes.h"
#include "tracing.h"
#include "workloads.h"

using namespace perfbench;
using ptl::U64;

namespace {

struct Args
{
    std::string workload;
    U64 seed = 1;
    double seconds = 10;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string digest_file;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] "
                 "[--digest-file PATH]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--scale")
            a.scale = v == "tiny" ? Scale::Tiny : Scale::Full;
        else if (flag == "--digest-file")
            a.digest_file = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

// ---------------------------------------------------------------------
// Host-noise record
// ---------------------------------------------------------------------

std::string
firstLineWith(const char *path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0)
            return line;
    }
    return "";
}

/** Steal ticks (USER_HZ) summed over all CPUs, from /proc/stat. */
U64
stealTicks()
{
    std::istringstream in(firstLineWith("/proc/stat", "cpu "));
    std::string cpu;
    U64 field = 0, steal = 0;
    in >> cpu;
    for (int i = 0; i < 8 && in >> field; i++)
        steal = field;   // the 8th field is steal
    return steal;
}

void
printHostRecord()
{
    std::string model = firstLineWith("/proc/cpuinfo", "model name");
    size_t colon = model.find(':');
    model = colon == std::string::npos ? "unknown" : model.substr(colon + 2);
    std::string load;
    std::getline(std::ifstream("/proc/loadavg"), load);
    std::printf("host: cpu \"%s\", nproc %ld, loadavg %s\n", model.c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), load.c_str());
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;   // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------
// Iterations
// ---------------------------------------------------------------------

/** The program's own counters after one run. They repeat exactly. */
struct Counters
{
    U64 sim_cycles = 0, busy_cycles = 0, idle_cycles = 0, insns = 0;
    U64 uops = 0, eventq_fired = 0, hypervisor_calls = 0, snapshots = 0;
    U64 skipped_cycles = 0, core_cycles = 0, pipeline_flushes = 0;
    U64 lsq_replays = 0, bb_hits = 0, bb_misses = 0;
    U64 tc_hits = 0, tc_misses = 0;
    U64 l1d_accesses = 0, l1d_misses = 0, l2_accesses = 0, l2_misses = 0;
    U64 dtlb_walks = 0, membackend_reqs = 0;
    U64 branches = 0, mispredicts = 0;
    ModelCounts model;
    U64 digest = 0;
};

Counters
readCounters(Domain &d)
{
    const ptl::StatsTree &s = d.machine().stats();
    const std::string p = d.statsPrefix();
    Counters c;
    c.model = d.modelCounts();
    c.digest = d.digest();
    c.sim_cycles = c.model.cycles;
    c.busy_cycles = s.get("external/cycles_in_mode/user")
                    + s.get("external/cycles_in_mode/kernel");
    c.idle_cycles = s.get("external/cycles_in_mode/idle");
    c.insns = d.machine().totalCommittedInsns();
    c.uops = s.get(p + "commit/uops");
    c.eventq_fired = s.get("eventq/fired");
    c.hypervisor_calls =
        s.get("hypervisor/hypercalls") + s.get("hypervisor/ptlcalls");
    c.snapshots = s.snapshotCount();
    c.skipped_cycles = s.get(p + "ooocore/skipped_cycles");
    c.core_cycles = s.get(p + "cycles");
    c.pipeline_flushes = s.get(p + "pipeline/flushes");
    c.lsq_replays = s.get(p + "lsq/replays");
    c.bb_hits = s.get("bbcache/hits");
    c.bb_misses = s.get("bbcache/misses");
    c.tc_hits = s.get("transcache/hits");
    c.tc_misses = s.get("transcache/misses");
    c.l1d_accesses = s.get(p + "dcache/accesses");
    c.l1d_misses = s.get(p + "dcache/misses");
    c.l2_accesses = s.get(p + "l2/accesses");
    c.l2_misses = s.get(p + "l2/misses");
    c.dtlb_walks = s.get(p + "walker/walks");
    c.membackend_reqs =
        s.get(p + "membackend/reads") + s.get(p + "membackend/writes");
    c.branches = s.get(p + "branches/cond");
    c.mispredicts = s.get(p + "branches/mispredicted");
    return c;
}

struct Iteration
{
    bool traced = false;
    double setup_s = 0;
    double run_s = 0;
    std::vector<double> slice_s;   ///< host seconds per run slice
    bool shutdown = false;
    bool self_check = false;
    Counters counters;
    TraceLog trace;
    std::array<double, PHASE_COUNT> phase_s{};
};

/** Build, run and check one domain. `log` is the traced core's sink;
 *  it is cleared first. */
Iteration
runIteration(const Args &args, bool traced, TraceLog &log)
{
    Iteration it;
    it.traced = traced;
    log = TraceLog();
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Domain> d =
        buildDomain(args.workload, args.seed, args.scale, traced);
    Clock::time_point t1 = Clock::now();
    ptl::Machine::RunResult r = d->run(it.slice_s);
    Clock::time_point t2 = Clock::now();
    it.setup_s = std::chrono::duration<double>(t1 - t0).count();
    it.run_s = std::chrono::duration<double>(t2 - t1).count();
    it.shutdown = r.shutdown;
    it.self_check = r.shutdown && d->selfCheckPassed(r);
    it.counters = readCounters(*d);
    if (traced) {
        it.trace = log;
        it.phase_s = log.phaseSeconds(t1, t2);
    }
    return it;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const char *heading, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", heading);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); i++) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Table 1 rows: this workload's engine beside its twin on the other
 *  engine, with the paper's %diff (PTLsim vs native K8). */
std::vector<Metric>
table1(const std::string &workload, const ModelCounts &self,
       const ModelCounts &twin)
{
    const bool self_is_ooo = workloadEngine(workload) == Engine::Ooo;
    const ModelCounts &ooo = self_is_ooo ? self : twin;
    const ModelCounts &nat = self_is_ooo ? twin : self;
    struct Row
    {
        const char *name;
        U64 nat, ooo;
        const char *paper;
    };
    const Row rows[] = {
        {"cycles", nat.cycles, ooo.cycles, "+4.30%"},
        {"insns", nat.insns, ooo.insns, "+1.55%"},
        {"uops", nat.uops, ooo.uops, "+30.99%"},
        {"l1d_misses", nat.l1d_misses, ooo.l1d_misses, "+7.28%"},
        {"l1d_accesses", nat.l1d_accesses, ooo.l1d_accesses, "+0.91%"},
        {"branches", nat.branches, ooo.branches, "-1.60%"},
        {"mispredicts", nat.mispredicts, ooo.mispredicts, "-5.84%"},
        {"dtlb_misses", nat.dtlb_misses, ooo.dtlb_misses, "+144%"},
    };
    std::printf("\nTable 1 (simulated counts; same guest and seed): "
                "out-of-order vs native K8 reference\n");
    std::printf("  %-28s %14s %14s %10s %10s\n", "row", "native", "ooo",
                "%diff", "paper");
    std::vector<Metric> out;
    for (const Row &r : rows) {
        double diff = r.nat ? 100.0 * ((double)r.ooo - (double)r.nat)
                                  / (double)r.nat
                            : 0.0;
        std::string name = std::string("model.table1.") + r.name;
        std::printf("  %-28s %14" PRIu64 " %14" PRIu64 " %+9.2f%% %10s\n",
                    name.c_str(), r.nat, r.ooo, diff, r.paper);
        out.push_back({name, diff, "%"});
    }
    return out;
}

/**
 * The run_s estimate over the traced or the untraced iterations: for
 * each slice of the run, the fastest host time any iteration took for
 * it, summed. Every iteration simulates the same slices, and host
 * contention only ever slows a slice, so this estimates the
 * uncontended cost of Machine::run. A native run is one slice, so
 * there it is the fastest iteration.
 */
double
fastestSliceSum(const std::vector<Iteration> &iters, bool traced)
{
    std::vector<double> fastest;
    for (const Iteration &it : iters) {
        if (it.traced != traced)
            continue;
        if (fastest.empty())
            fastest = it.slice_s;
        else if (it.slice_s.size() == fastest.size()) {
            for (size_t k = 0; k < fastest.size(); k++)
                fastest[k] = std::min(fastest[k], it.slice_s[k]);
        }
    }
    double sum = 0;
    for (double s : fastest)
        sum += s;
    return sum;
}

/** Fold the 64-bit digest to 48 bits so a JSON double holds it
 *  exactly. */
double
digestMetric(U64 digest)
{
    return (double)((digest ^ (digest >> 48)) & ((1ULL << 48) - 1));
}

/** The digest recorded at `path` by an earlier run of the same binary,
 *  workload and seed; with none, records `digest` and returns it. */
U64
recordedDigest(const std::string &path, U64 digest)
{
    if (path.empty())
        return digest;
    U64 recorded = 0;
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        if (std::fscanf(f, "%" SCNx64, &recorded) != 1)
            recorded = 0;
        std::fclose(f);
    }
    if (recorded)
        return recorded;
    if (std::FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%016" PRIx64 "\n", digest);
        std::fclose(f);
    }
    return digest;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    static TraceLog trace_log;
    registerTracedCore(&trace_log);

    std::printf("perfbench: workload %s, seed %" PRIu64 ", %.0f s, %s\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? "traced" : "untraced");
    std::printf("workload: %s\n",
                describeWorkload(args.workload, args.scale).c_str());
    std::printf("simulated caches, TLBs and predictors start cold in every "
                "run: each run builds a fresh domain\n");
    printHostRecord();
    const U64 steal0 = stealTicks();
    const Clock::time_point start = Clock::now();

    // Traced runs first run the layer probes and the Table 1 twin once.
    ProbeResults probes;
    ModelCounts twin;
    bool twin_ok = true;
    if (args.trace) {
        std::unique_ptr<Domain> d =
            buildDomain(args.workload, args.seed, args.scale, false);
        probes = runProbes(*d, args.seed);
        d.reset();
        std::unique_ptr<Domain> t = buildDomain(args.workload, args.seed,
                                                args.scale, false, true);
        std::vector<double> slice_s;
        ptl::Machine::RunResult r = t->run(slice_s);
        twin_ok = r.shutdown && t->selfCheckPassed(r);
        twin = t->modelCounts();
    }

    // Untraced (and, with --trace 1, traced) iterations, alternating,
    // until the next one would end past the time budget.
    std::vector<Iteration> iters;
    const size_t min_iters = args.trace ? 2 : 1;
    std::vector<double> iter_s;
    while (iters.size() < min_iters
           || secondsSince(start) + median(iter_s) <= args.seconds) {
        bool traced = args.trace && iters.size() % 2 == 1;
        Clock::time_point t0 = Clock::now();
        iters.push_back(runIteration(args, traced, trace_log));
        iter_s.push_back(secondsSince(t0));
    }

    // Correctness gate.
    const U64 reference =
        recordedDigest(args.digest_file, iters.front().counters.digest);
    size_t failed = twin_ok ? 0 : 1;
    bool digests_match = true;
    for (const Iteration &it : iters) {
        digests_match &= it.counters.digest == reference;
        bool ok = it.shutdown && it.self_check
                  && it.counters.digest == reference;
        failed += ok ? 0 : 1;
        if (!ok) {
            std::printf("FAILED %s run: shutdown %d, self-check %d, digest "
                        "%016" PRIx64 " (expected %016" PRIx64 ")\n",
                        it.traced ? "traced" : "untraced", it.shutdown,
                        it.self_check, it.counters.digest, reference);
        }
    }
    const size_t attempted = iters.size() + (args.trace ? 1 : 0);
    const bool correct = failed == 0;

    std::vector<double> setup_s, run_s, traced_run_s;
    for (const Iteration &it : iters) {
        setup_s.push_back(it.setup_s);
        (it.traced ? traced_run_s : run_s).push_back(it.run_s);
    }
    const Counters &c = iters.front().counters;
    const double run_median = median(run_s);
    const double run_fastest = fastestSliceSum(iters, false);

    std::printf("\nruns: %zu untraced, %zu traced; model.digest %016" PRIx64
                " (%s); steal ticks during the run: %" PRIu64 "\n",
                run_s.size(), traced_run_s.size(), c.digest,
                digests_match ? "identical in every run" : "MISMATCH",
                stealTicks() - steal0);
    std::printf("untraced iterations: %zu timed slices each; run_s is the "
                "fastest-slice sum %.4f s; per-iteration median %.4f s, "
                "samples:",
                iters.front().slice_s.size(), run_fastest, run_median);
    for (double v : run_s)
        std::printf(" %.4f", v);
    std::printf("\n");

    std::vector<Metric> e2e = {
        {"run_s", run_fastest, "s"},
        {"setup_s", median(setup_s), "s"},
        {"busy_cycles_per_s", ratio((double)c.busy_cycles, run_fastest),
         "cycles/s"},
        {"guest_insns_per_s", ratio((double)c.insns, run_fastest),
         "insns/s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
    printMetrics("end-to-end (host time over the untraced runs: run_s is "
                 "the fastest-slice sum, setup_s the median)",
                 e2e);
    if (!args.trace) {
        printJson(correct, attempted, failed, e2e);
        return correct ? 0 : 1;
    }

    // The traced iteration with the median run_s supplies the spans, so
    // its core, self and phase times add up to its own run_s.
    std::vector<const Iteration *> traced;
    for (const Iteration &it : iters) {
        if (it.traced)
            traced.push_back(&it);
    }
    std::sort(traced.begin(), traced.end(),
              [](const Iteration *a, const Iteration *b) {
                  return a->run_s < b->run_s;
              });
    const Iteration &mid = *traced[(traced.size() - 1) / 2];

    std::vector<Metric> layers = {
        {"trace.run_s", mid.run_s, "s"},
        {"trace.overhead_s", fastestSliceSum(iters, true) - run_fastest,
         "s"},
        {"sys.run_self_s", mid.run_s - mid.trace.cycle_s, "s"},
        {"sys.eventq_fired", (double)c.eventq_fired, "count"},
        {"sys.hypervisor_calls", (double)c.hypervisor_calls, "count"},
        {"sys.idle_cycle_share",
         ratio((double)c.idle_cycles,
               (double)(c.idle_cycles + c.busy_cycles)),
         "ratio"},
        {"sys.eventq_ns_per_event", probes.eventq_ns_per_event, "ns"},
        {"stats.snapshots", (double)c.snapshots, "count"},
        {"core.cycle_s", mid.trace.cycle_s, "s"},
        {"core.cycle_calls", (double)mid.trace.cycle_calls, "count"},
        {"core.ns_per_cycle",
         1e9 * ratio(mid.trace.cycle_s, (double)mid.trace.cycle_calls),
         "ns"},
        {"core.sys_calls", (double)mid.trace.sys_calls, "count"},
        {"core.skipped_cycle_share",
         ratio((double)c.skipped_cycles, (double)c.core_cycles), "ratio"},
        {"core.ipc", ratio((double)c.insns, (double)c.sim_cycles),
         "insns/cycle"},
        {"core.uops_per_insn", ratio((double)c.uops, (double)c.insns),
         "ratio"},
        {"core.pipeline_flushes", (double)c.pipeline_flushes, "count"},
        {"core.lsq_replays", (double)c.lsq_replays, "count"},
        {"decode.bb_hit_ratio",
         ratio((double)c.bb_hits, (double)(c.bb_hits + c.bb_misses)),
         "ratio"},
        {"decode.bb_misses", (double)c.bb_misses, "count"},
        {"decode.translate_ns_per_insn", probes.translate_ns_per_insn,
         "ns"},
        {"decode.bb_lookup_ns", probes.bb_lookup_ns, "ns"},
        {"uop.exec_ns_per_uop", probes.exec_ns_per_uop, "ns"},
        {"mem.transcache_hit_ratio",
         ratio((double)c.tc_hits, (double)(c.tc_hits + c.tc_misses)),
         "ratio"},
        {"mem.l1d_miss_ratio",
         ratio((double)c.l1d_misses, (double)c.l1d_accesses), "ratio"},
        {"mem.l2_miss_ratio",
         ratio((double)c.l2_misses, (double)c.l2_accesses), "ratio"},
        {"mem.dtlb_walks", (double)c.dtlb_walks, "count"},
        {"mem.membackend_reqs", (double)c.membackend_reqs, "count"},
        {"mem.access_ns.resident", probes.access_ns_resident, "ns"},
        {"mem.access_ns.spill", probes.access_ns_spill, "ns"},
        {"mem.translate_ns", probes.translate_ns, "ns"},
        {"mem.backend_ns", probes.backend_ns, "ns"},
        {"branch.mispredict_ratio",
         ratio((double)c.mispredicts, (double)c.branches), "ratio"},
        {"branch.ns_per_branch", probes.ns_per_branch, "ns"},
    };
    for (int p = 0; p < PHASE_COUNT; p++) {
        layers.push_back({std::string("workload.phase_s.") + (char)('a' + p),
                          mid.phase_s[p], "s"});
    }
    layers.push_back({"model.sim_cycles", (double)c.sim_cycles, "cycles"});
    layers.push_back({"model.insns", (double)c.insns, "insns"});
    layers.push_back({"model.digest", digestMetric(c.digest), "hash48"});
    std::vector<Metric> rows = table1(args.workload, c.model, twin);
    layers.insert(layers.end(), rows.begin(), rows.end());

    printMetrics("per-layer (the traced run with the median run_s; "
                 "counters repeat exactly; probes in host ns per op)",
                 layers);
    double phases = 0;
    for (double p : mid.phase_s)
        phases += p;
    std::printf("\ntraced run_s %.4f s = core.cycle_s %.4f s (%.1f%%) + "
                "sys.run_self_s %.4f s; the phases cover %.4f s\n",
                mid.run_s, mid.trace.cycle_s,
                100 * ratio(mid.trace.cycle_s, mid.run_s),
                mid.run_s - mid.trace.cycle_s, phases);
    printJson(correct, attempted, failed, layers);
    return correct ? 0 : 1;
}
