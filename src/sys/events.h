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
 * record and raises the port. Checkpoints carry the records and the
 * raised masks (visit); the master loop never polls this module.
 */
class EventChannels
{
  public:
    EventChannels(std::vector<Context *> vcpus, EventQueue &queue,
                  StatsTree &stats);

    /** Raise `port` immediately: sets the pending bit, marks VCPU 0's
     *  event_pending, and wakes it if blocked. */
    void send(int port);

    /** Schedule `port` to be raised at absolute cycle `when`. */
    void sendAt(SimCycle when, int port);

    /** Checkpoint: the raised port masks and the scheduled sends. */
    void visit(Archive &ar);

    /**
     * Arm every scheduled send on the queue again (checkpoint restore;
     * call after EventQueue::clear()). Only these sends use
     * EVPRI_EVCHAN, so arming them in schedule order keeps the firing
     * order of equal-due sends.
     */
    void rearm();

    /**
     * Read-and-clear the pending port bitmask for `vcpu` (the
     * evtchn_pending hypercall the guest kernel's upcall handler
     * uses). Clears the VCPU's event_pending flag. Ports raise on
     * VCPU 0 only, so any other VCPU reads 0.
     */
    U64 consumePending(int vcpu);

    int vcpuCount() const { return (int)vcpus.size(); }

  private:
    const std::vector<Context *> vcpus;
    U64 pending_mask = 0;  ///< raised, unconsumed ports (VCPU 0's)
    std::vector<TimerEventRecord> pending_sends;  ///< schedule order
    EventQueue *const queue;
    Counter &st_sent;
    Counter &st_scheduled;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_EVENTS_H_
