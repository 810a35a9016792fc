/**
 * @file
 * The discrete-event simulation kernel.
 *
 * PTLsim's control logic (Section 2.2) advances cores in round robin
 * while everything else that "happens at a cycle" — timer deliveries,
 * device completions, trace injection, the stats-snapshot cadence,
 * hypervisor mode-switch requests — used to keep its own private
 * due-time and be re-polled by the master loop on every simulated
 * cycle. EventQueue centralizes all of that into one deterministic
 * scheduler, the same structure modern full-system simulators (gem5's
 * EventQueue) are built around:
 *
 *  - a binary min-heap keyed by (due_cycle, priority, insertion_seq),
 *    so same-cycle events fire in a reproducible order: priority
 *    encodes the legacy source order (snapshot, event channels, disk,
 *    net, replay, control) and the insertion sequence breaks remaining
 *    ties by schedule order;
 *  - O(1) nextDue(): the master loop's per-cycle cost drops to a
 *    single integer compare against the heap head;
 *  - purely derived state: every schedule site pairs payload-owning
 *    state in a subsystem (timer sends in EventChannels, disk request
 *    queues, net packets) with a queue arm, so a checkpoint carries
 *    the payloads and a restore clears the queue for them to re-arm.
 *
 * Determinism rule: for a fixed sequence of schedule() calls, runDue()
 * invokes callbacks in exactly (due, priority, seq) order, and a
 * callback may schedule further events (including for the current
 * cycle — they run in the same pass, after everything already due).
 */

#ifndef PTLSIM_SYS_EVENTQ_H_
#define PTLSIM_SYS_EVENTQ_H_

#include <functional>
#include <vector>

#include "lib/simtime.h"
#include "stats/stats.h"

namespace ptl {

/**
 * Fixed same-cycle firing order. The values reproduce the legacy
 * master-loop processing order (event channels, then disk, then net,
 * then trace replay, then hypervisor requests), with the periodic
 * stats snapshot first: the old loop took a due snapshot immediately
 * after ticking to the boundary cycle, *before* processing deliveries
 * due at that cycle, so Figure 2/3 interval accounting stays
 * bit-identical.
 */
enum EventPriority : int {
    EVPRI_SNAPSHOT = 0,   ///< periodic stats snapshot
    EVPRI_EVCHAN = 1,     ///< event-channel (timer) deliveries
    EVPRI_DISK = 2,       ///< disk DMA completions
    EVPRI_NET = 3,        ///< network packet deliveries
    EVPRI_REPLAY = 4,     ///< recorded-trace injection
    EVPRI_CONTROL = 5,    ///< hypervisor mode-switch/snapshot requests
    EVPRI_GENERIC = 6,
};

class EventQueue
{
  public:
    using Callback = std::function<void(SimCycle now)>;

    explicit EventQueue(StatsTree &stats);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule `cb` to fire at absolute cycle `due`. Events already in
     * the past (due <= now at the next runDue) fire on that pass.
     * `wakes` says whether the event counts as work for an all-idle
     * machine (stall detection); only the stats snapshot passes false.
     */
    void schedule(SimCycle due, int priority, Callback cb,
                  bool wakes = true);

    /** Cycle of the earliest pending event, CYCLE_NEVER if none. O(1):
     *  this is the master loop's per-cycle check. */
    SimCycle
    nextDue() const
    {
        return heap.empty() ? CYCLE_NEVER : heap.front().due;
    }

    /**
     * Fire every event with due <= now, in (due, priority, seq) order,
     * including events scheduled by the callbacks themselves. Returns
     * the number fired. Not reentrant: a callback that calls runDue()
     * panics (the ptl_assert is on in every build).
     */
    int runDue(SimCycle now);

    bool empty() const { return heap.empty(); }
    size_t pendingCount() const { return heap.size(); }

    /** Pending events that can wake an all-idle machine. Zero here
     *  (with idle VCPUs) means the domain is stalled for good. */
    size_t wakePendingCount() const { return wake_count; }

    /** Drop every pending event (checkpoint restore; callers re-arm). */
    void clear();

  private:
    struct Entry
    {
        SimCycle due;
        int priority;
        U64 seq;
        bool wakes;
        Callback cb;
    };

    /** Min-heap comparator: `a` fires strictly after `b`. */
    static bool
    laterFirst(const Entry &a, const Entry &b)
    {
        if (a.due != b.due)
            return a.due > b.due;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    std::vector<Entry> heap;
    U64 next_seq = 0;
    size_t wake_count = 0;
    size_t peak = 0;
    bool in_run = false;

    Counter &st_scheduled;
    Counter &st_fired;
    Counter &st_peak_pending;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_EVENTQ_H_
