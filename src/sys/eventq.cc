#include "sys/eventq.h"

#include <algorithm>

#include "lib/logging.h"

namespace ptl {

EventQueue::EventQueue(StatsTree &stats)
    : st_scheduled(stats.counter("eventq/scheduled")),
      st_fired(stats.counter("eventq/fired")),
      st_cancelled(stats.counter("eventq/cancelled")),
      st_peak_pending(stats.counter("eventq/peak_pending"))
{
}

EventHandle
EventQueue::schedule(SimCycle due, int priority, Callback cb,
                     const Options &opts)
{
    ptl_assert(cb != nullptr);
    Entry e;
    e.due = due;
    e.priority = priority;
    e.seq = next_seq++;
    const U64 id = next_id++;
    e.id = id;
    e.kind = opts.kind;
    e.arg = opts.arg;
    e.name = opts.name;
    e.wakes = opts.wakes;
    e.cb = std::move(cb);
    heap.push_back(std::move(e));
    std::push_heap(heap.begin(), heap.end(), laterFirst);
    if (opts.wakes)
        wake_count++;
    st_scheduled++;
    if (heap.size() > peak) {
        st_peak_pending += heap.size() - peak;
        peak = heap.size();
    }
    return EventHandle{id};
}

bool
EventQueue::cancel(EventHandle h)
{
    if (!h.valid())
        return false;
    for (auto it = heap.begin(); it != heap.end(); ++it) {
        if (it->id != h.id)
            continue;
        if (it->wakes)
            wake_count--;
        heap.erase(it);
        std::make_heap(heap.begin(), heap.end(), laterFirst);
        st_cancelled++;
        return true;
    }
    return false;
}

int
EventQueue::runDue(SimCycle now)
{
    ptl_assert(!in_run);
    in_run = true;
    int fired = 0;
    while (!heap.empty() && heap.front().due <= now) {
        std::pop_heap(heap.begin(), heap.end(), laterFirst);
        Entry e = std::move(heap.back());
        heap.pop_back();
        if (e.wakes)
            wake_count--;
        st_fired++;
        fired++;
        e.cb(now);
    }
    in_run = false;
    return fired;
}

void
EventQueue::clear()
{
    heap.clear();
    wake_count = 0;
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSorted() const
{
    std::vector<Entry const *> order;
    order.reserve(heap.size());
    for (const Entry &e : heap)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const Entry *a, const Entry *b) {
                  return laterFirst(*b, *a);
              });
    std::vector<PendingEvent> out;
    out.reserve(order.size());
    for (const Entry *e : order) {
        out.push_back({e->due, e->priority, e->seq, e->kind, e->arg,
                       e->name, e->wakes});
    }
    return out;
}

}  // namespace ptl
