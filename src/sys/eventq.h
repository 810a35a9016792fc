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
 *  - cancellable handles (snapshot re-arming after checkpoint restore,
 *    aborted work);
 *  - serialization support: every entry carries an EventKind tag so
 *    checkpoint code can enumerate pending *guest-visible* work (timer
 *    deliveries) and rebuild it on restore. Callbacks themselves are
 *    derived state: each schedule site pairs payload-owning state in a
 *    subsystem (disk request queues, net packets) with a queue arm, so
 *    a checkpoint serializes the payloads and re-arms the queue.
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

/** Serializable identity of an event (checkpoint support). */
enum EventKind : U16 {
    EVK_GENERIC = 0,      ///< derived/bookkeeping; never serialized
    EVK_TIMER_PORT = 1,   ///< arg = event-channel port; serialized
    EVK_SNAPSHOT = 2,     ///< machine re-arms from last_snapshot
    EVK_CONTROL = 3,      ///< transient (due next cycle); dropped
    EVK_DEVICE = 4,       ///< payload serialized by the device itself
};

/** Cancellable reference to a scheduled event. */
struct EventHandle
{
    U64 id = 0;
    bool valid() const { return id != 0; }
};

class EventQueue
{
  public:
    using Callback = std::function<void(SimCycle now)>;

    explicit EventQueue(StatsTree &stats);

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Optional per-event metadata. */
    struct Options
    {
        const char *name = "";      ///< debug label (static storage)
        EventKind kind = EVK_GENERIC;
        U64 arg = 0;                ///< kind-specific payload
        bool wakes = true;          ///< counts as work for an all-idle
                                    ///< machine (stall detection)
    };

    /**
     * Schedule `cb` to fire at absolute cycle `due`. Events already in
     * the past (due <= now at the next runDue) fire on that pass.
     */
    EventHandle schedule(SimCycle due, int priority, Callback cb,
                         const Options &opts);

    EventHandle
    schedule(SimCycle due, int priority, Callback cb)
    {
        return schedule(due, priority, std::move(cb), Options());
    }

    /** Remove a pending event. Returns false if it already fired or
     *  was cancelled (handles are never reused). */
    bool cancel(EventHandle h);

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
     * the number fired. Not reentrant.
     */
    int runDue(SimCycle now);

    bool empty() const { return heap.empty(); }
    size_t pendingCount() const { return heap.size(); }

    /** Pending events that can wake an all-idle machine. Zero here
     *  (with idle VCPUs) means the domain is stalled for good. */
    size_t wakePendingCount() const { return wake_count; }

    /** Drop every pending event (checkpoint restore; callers re-arm). */
    void clear();

    /** A pending event, minus its callback (introspection/serialize). */
    struct PendingEvent
    {
        SimCycle due;
        int priority = 0;
        U64 seq = 0;
        EventKind kind = EVK_GENERIC;
        U64 arg = 0;
        const char *name = "";
        bool wakes = true;
    };

    /** All pending events in firing order. */
    std::vector<PendingEvent> pendingSorted() const;

  private:
    struct Entry
    {
        SimCycle due;
        int priority;
        U64 seq;
        U64 id;
        EventKind kind;
        U64 arg;
        const char *name;
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
    U64 next_id = 1;
    size_t wake_count = 0;
    size_t peak = 0;
    bool in_run = false;

    Counter &st_scheduled;
    Counter &st_fired;
    Counter &st_cancelled;
    Counter &st_peak_pending;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_EVENTQ_H_
