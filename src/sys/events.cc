#include "sys/events.h"

#include <algorithm>
#include <utility>

#include "lib/archive.h"
#include "lib/logging.h"

namespace ptl {

EventChannels::EventChannels(std::vector<Context *> vcpu_list,
                             EventQueue &eventq, StatsTree &stats)
    : vcpus(std::move(vcpu_list)), queue(&eventq),
      st_sent(stats.counter("events/sent")),
      st_scheduled(stats.counter("events/scheduled"))
{
    ptl_assert(!vcpus.empty());
}

void
EventChannels::send(int port)
{
    ptl_assert(port >= 0 && port < MAX_EVENT_PORTS);
    st_sent++;
    // Every port raises on VCPU 0: nothing binds a port elsewhere.
    pending_mask |= (U64(1) << port);
    Context *ctx = vcpus[0];
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
EventChannels::visit(Archive &ar)
{
    ar(pending_mask);
    ar.length(pending_sends);
    for (TimerEventRecord &t : pending_sends)
        ar(t.when, t.port);
}

void
EventChannels::rearm()
{
    for (const TimerEventRecord &t : std::exchange(pending_sends, {}))
        sendAt(t.when, t.port);
}

U64
EventChannels::consumePending(int vcpu)
{
    ptl_assert(vcpu >= 0 && (size_t)vcpu < vcpus.size());
    vcpus[vcpu]->event_pending = false;
    return vcpu == 0 ? std::exchange(pending_mask, 0) : 0;
}

}  // namespace ptl
