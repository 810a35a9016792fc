#include "sys/events.h"

#include <algorithm>

#include "lib/logging.h"

namespace ptl {

EventChannels::EventChannels(std::vector<Context *> vcpu_list,
                             EventQueue &eventq, StatsTree &stats)
    : vcpus(std::move(vcpu_list)), pending_mask(vcpus.size(), 0),
      queue(&eventq),
      st_sent(stats.counter("events/sent")),
      st_scheduled(stats.counter("events/scheduled"))
{
    ptl_assert(!vcpus.empty());
}

void
EventChannels::bind(int port, int vcpu)
{
    ptl_assert(port >= 0 && port < MAX_EVENT_PORTS);
    ptl_assert(vcpu >= 0 && (size_t)vcpu < vcpus.size());
    port_vcpu[port] = vcpu;
}

void
EventChannels::send(int port)
{
    ptl_assert(port >= 0 && port < MAX_EVENT_PORTS);
    st_sent++;
    int vcpu = port_vcpu[port];
    pending_mask[vcpu] |= (U64(1) << port);
    Context *ctx = vcpus[vcpu];
    ctx->event_pending = true;
    // Wake a VCPU blocked in hlt; delivery happens at the next
    // instruction boundary if events are unmasked.
    ctx->running = true;
}

void
EventChannels::sendAt(SimCycle when, int port)
{
    ptl_assert(port >= 0 && port < MAX_EVENT_PORTS);
    st_scheduled++;
    const TimerEventRecord rec{when, port};
    pending_sends.push_back(rec);
    queue->schedule(when, EVPRI_EVCHAN, [this, rec](SimCycle) {
        // Equal records are interchangeable: dropping the first match
        // drops this send's own record.
        auto it = std::find(pending_sends.begin(), pending_sends.end(),
                            rec);
        ptl_assert(it != pending_sends.end());
        pending_sends.erase(it);
        send(rec.port);
    });
}

void
EventChannels::restorePendingSends(
    const std::vector<TimerEventRecord> &sends)
{
    pending_sends.clear();
    for (const TimerEventRecord &t : sends)
        sendAt(t.when, t.port);
}

U64
EventChannels::consumePending(int vcpu)
{
    ptl_assert(vcpu >= 0 && (size_t)vcpu < vcpus.size());
    U64 mask = pending_mask[vcpu];
    pending_mask[vcpu] = 0;
    vcpus[vcpu]->event_pending = false;
    return mask;
}

}  // namespace ptl
