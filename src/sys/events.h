/**
 * @file
 * Xen-style event channels and the deferred-event queue.
 *
 * Paravirtual guests receive all asynchronous notifications (timer
 * ticks, device completions, inter-domain signals) as *events* on
 * numbered ports — "functionally similar to the IO-APIC hardware on
 * the bare CPU" (Section 3). The deferred queue is how the hypervisor
 * model keys deliveries to exact future cycle numbers, which is what
 * makes the whole machine deterministic (the paper's -maskints mode).
 */

#ifndef PTLSIM_SYS_EVENTS_H_
#define PTLSIM_SYS_EVENTS_H_

#include <vector>

#include "core/context.h"
#include "kernel/hypercalls.h"
#include "lib/logging.h"
#include "stats/stats.h"
#include "sys/eventq.h"

namespace ptl {

/** A pending cycle-keyed event-channel send (checkpoint payload). */
struct TimerEventRecord
{
    SimCycle when;
    int port = 0;

    bool operator==(const TimerEventRecord &) const = default;
};

/**
 * Per-domain event channel state. Cycle-keyed sends are payload this
 * module owns: each is a TimerEventRecord kept in schedule order, with
 * a derived EventQueue arm (priority EVPRI_EVCHAN) that drops its
 * record and raises the port. Checkpoints capture and restore the
 * records; the master loop never polls this module.
 */
class EventChannels
{
  public:
    EventChannels(std::vector<Context *> vcpus, EventQueue &queue,
                  StatsTree &stats);

    /** Raise `port` immediately: sets the pending bit, marks the
     *  bound VCPU's event_pending, and wakes it if blocked. */
    void send(int port);

    /** Schedule `port` to be raised at absolute cycle `when`. */
    void sendAt(SimCycle when, int port);

    /** Scheduled, not yet raised sends, in schedule order (checkpoint
     *  capture). */
    const std::vector<TimerEventRecord> &
    pendingSends() const
    {
        return pending_sends;
    }

    /**
     * Replace the scheduled sends with `sends` and re-arm each on the
     * queue (checkpoint restore; call after EventQueue::clear()).
     * Only these sends use EVPRI_EVCHAN, so re-arming them in schedule
     * order keeps the firing order of equal-due sends.
     */
    void restorePendingSends(const std::vector<TimerEventRecord> &sends);

    /**
     * Read-and-clear the pending port bitmask for `vcpu` (the
     * evtchn_pending hypercall the guest kernel's upcall handler
     * uses). Clears the VCPU's event_pending flag.
     */
    U64 consumePending(int vcpu);

    /** Bind a port to a VCPU (default: all ports to VCPU 0). */
    void bind(int port, int vcpu);

    /** Raised-but-unconsumed port bitmasks (checkpoint capture). */
    const std::vector<U64> &pendingMasks() const { return pending_mask; }

    /** Restore the raised-but-unconsumed bitmasks (checkpoint). */
    void
    restorePendingMasks(const std::vector<U64> &masks)
    {
        ptl_assert(masks.size() == pending_mask.size());
        pending_mask = masks;
    }

    int vcpuCount() const { return (int)vcpus.size(); }

  private:
    std::vector<Context *> vcpus;
    std::vector<U64> pending_mask;  ///< per-vcpu bitmask of ports
    std::vector<TimerEventRecord> pending_sends;  ///< schedule order
    int port_vcpu[MAX_EVENT_PORTS] = {};
    EventQueue *queue;
    Counter &st_sent;
    Counter &st_scheduled;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_EVENTS_H_
