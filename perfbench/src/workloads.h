/**
 * @file
 * The benchmark's workloads: how each domain is built, run and checked.
 *
 *   rsync-ooo     the Section 5 rsync-over-ssh domain on the K8
 *                 out-of-order core, Figure 2 snapshot cadence
 *   rsync-native  the same guest and file set on the functional engine
 *                 with the K8 profiling structures (makeNativeTrial,
 *                 Table 1's reference column)
 *   memchase-ooo  a seeded Sattolo pointer chase over 8x the K8 L2,
 *                 with a store stream beside it, built on KernelBuilder
 *
 * Every build makes a fresh Machine, so simulated caches, TLBs and
 * predictors start cold in every run.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "sys/machine.h"

namespace perfbench {

using ptl::U64;

/** splitmix64: the benchmark's own input generator, so inputs depend
 *  only on the seed and never on the simulator's code. */
inline U64
splitmix64(U64 &state)
{
    U64 z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Simulated cycles per timed slice of an out-of-order run. */
constexpr U64 SLICE_CYCLES = 100'000;

/** How large a run is: `Full` for measurement, `Tiny` for the
 *  self-test (seconds per workload). */
enum class Scale { Full, Tiny };

/** Which engine a domain runs on. */
enum class Engine { Ooo, Native };

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** One line saying what a workload runs, at a given scale. */
std::string describeWorkload(const std::string &workload, Scale scale);

/** The Table 1 quantities of one finished run (raw counts). */
struct ModelCounts
{
    U64 cycles = 0;        ///< ooo: machine clock; native: modelled cycles
    U64 insns = 0;
    U64 uops = 0;          ///< ooo: uops; native: K8 macro-ops
    U64 l1d_misses = 0;
    U64 l1d_accesses = 0;
    U64 branches = 0;      ///< conditional branches
    U64 mispredicts = 0;
    U64 dtlb_misses = 0;
};

/** A built domain, ready for Machine::run. */
class Domain
{
  public:
    virtual ~Domain() = default;

    virtual ptl::Machine &machine() = 0;
    virtual Engine engine() const = 0;

    /**
     * Run from boot to domain shutdown with Machine::run, appending the
     * host seconds of each slice to `slice_s`. Out-of-order domains run
     * in slices of SLICE_CYCLES simulated cycles, which simulates
     * exactly what one call would. The functional engine batches
     * instructions up to the run deadline, so a native domain runs as
     * one slice.
     */
    ptl::Machine::RunResult run(std::vector<double> &slice_s);

    /** The guest's own check: rsync reproduced every file, or the
     *  pointer chase ended on the pointer the host walk predicts. */
    virtual bool selfCheckPassed(const ptl::Machine::RunResult &r) const = 0;

    /** Stats prefix of the structures doing the work ("core0/" or
     *  "native/vcpu0/"). */
    std::string statsPrefix() const;

    /** Table 1 counts (native runs use the K8 accounting). */
    ModelCounts modelCounts();

    /**
     * FNV-1a over simulated cycles, instructions, uops, L1D misses,
     * mispredicts and DTLB misses. Equal digests mean the simulated
     * run was the same.
     */
    U64 digest();
};

/**
 * Build one domain. `traced` selects the timing decorator core
 * ("ooo-traced", see tracing.h) for the out-of-order workloads; the
 * simulated machine is otherwise identical. `other_engine` builds the
 * workload's guest on the other engine: its Table 1 twin.
 */
std::unique_ptr<Domain> buildDomain(const std::string &workload, U64 seed,
                                    Scale scale, bool traced,
                                    bool other_engine = false);

/** The engine a workload runs on. */
Engine workloadEngine(const std::string &workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
