/**
 * @file
 * The traced run: host-time spans recorded around the simulator's
 * layer boundaries, from the benchmark's own code.
 *
 * A decorator core model, registered as "ooo-traced" through
 * registerCoreModel, wraps the real "ooo" core, forwards every
 * CoreModel method and times cycle(). Its factory swaps
 * CoreBuildParams::sys for a forwarding SystemInterface that counts
 * the calls the core makes into the hypervisor and stamps host time at
 * each ptlcall phase marker, so host time can be attributed to the
 * rsync phases (a)-(g). Nothing simulated changes: the decorator and
 * the forwarder only observe.
 */

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <vector>

#include "lib/bitops.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The seven rsync phases (a)-(g), in order. */
constexpr int PHASE_COUNT = 7;

/** Spans and counts from one traced run. */
struct TraceLog
{
    double cycle_s = 0;        ///< host time inside CoreModel::cycle
    ptl::U64 cycle_calls = 0;
    ptl::U64 sys_calls = 0;    ///< SystemInterface calls from the core

    struct Mark
    {
        ptl::U64 id;
        Clock::time_point at;
    };
    std::vector<Mark> marks;   ///< ptlcall markers, in guest order

    /**
     * Host seconds per rsync phase over [start, end]. Time before the
     * first marker counts as phase (a) (start-up); each marker opens
     * its phase and the next marker closes it.
     */
    std::array<double, PHASE_COUNT> phaseSeconds(Clock::time_point start,
                                                 Clock::time_point end) const;
};

/**
 * Register "ooo-traced"; every core it builds records into `log`.
 * Call once, before any traced domain is built; `log` must outlive
 * every such domain.
 */
void registerTracedCore(TraceLog *log);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
