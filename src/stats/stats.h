/**
 * @file
 * PTLstats-style statistics tree with snapshot support.
 *
 * PTLsim exposes a hierarchical tree of event counters and a snapshot
 * facility: the full counter state can be checkpointed at any cycle, and
 * the PTLstats tools subtract snapshots to produce per-interval deltas
 * and the time-lapse plots of Figures 2 and 3. This module reproduces
 * that workflow: components register named counters (slash-separated
 * paths such as "dcache/misses" or "external/cycles_in_mode/kernel"),
 * the simulation takes a snapshot every N cycles, and analysis code
 * extracts per-interval series or renders summary tables.
 */

#ifndef PTLSIM_STATS_STATS_H_
#define PTLSIM_STATS_STATS_H_

#include "lib/simtime.h"

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "lib/bitops.h"
#include "lib/counter.h"

namespace ptl {

/** One snapshot: the cycle it was taken at plus all counter values. */
struct StatsSnapshot
{
    SimCycle cycle;
    std::vector<U64> values;  ///< indexed by counter registration order
};

/**
 * The statistics tree. Counter handles returned by counter() remain
 * valid for the lifetime of the tree (stable storage).
 */
class StatsTree
{
  public:
    StatsTree() = default;
    StatsTree(const StatsTree &) = delete;
    StatsTree &operator=(const StatsTree &) = delete;

    /** Find or create the counter at `path`. */
    Counter &counter(const std::string &path);

    /** Current value of the counter at `path` (0 if absent). */
    U64 get(const std::string &path) const;

    /** True if a counter at `path` has been registered. */
    bool has(const std::string &path) const;

    /** Record a snapshot of every counter, stamped with `cycle`. */
    void takeSnapshot(SimCycle cycle);

    size_t snapshotCount() const { return snapshots.size(); }
    /** The returned reference is only stable until the next
     *  takeSnapshot()/reset() (vector growth relocates). */
    const StatsSnapshot &snapshot(size_t i) const { return snapshots[i]; }

    /**
     * Per-interval deltas of one counter across consecutive snapshots
     * (PTLstats "subtract snapshots" operation). Result has
     * snapshotCount()-1 entries; empty if fewer than 2 snapshots.
     */
    std::vector<U64> deltaSeries(const std::string &path) const;

    /**
     * Per-interval ratio (numerator delta / denominator delta) as a
     * percentage; intervals with zero denominator yield 0.
     */
    std::vector<double> rateSeries(const std::string &numerator,
                                   const std::string &denominator) const;

    /** All registered counter paths in registration order. */
    std::vector<std::string> paths() const;

    /** Render all counters matching `prefix` as an aligned text table. */
    std::string renderTable(const std::string &prefix = "") const;

    /** Reset all counters to zero and drop snapshots. */
    void reset();

  private:
    std::deque<Counter> storage;              ///< stable counter storage
    std::vector<std::string> order;           ///< path per storage index
    std::map<std::string, size_t> index;      ///< path -> storage index
    std::vector<StatsSnapshot> snapshots;
};

}  // namespace ptl

#endif  // PTLSIM_STATS_STATS_H_
