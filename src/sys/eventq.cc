#include "sys/eventq.h"

#include <algorithm>

#include "lib/logging.h"

namespace ptl {

EventQueue::EventQueue(StatsTree &stats)
    : st_scheduled(stats.counter("eventq/scheduled")),
      st_fired(stats.counter("eventq/fired")),
      st_peak_pending(stats.counter("eventq/peak_pending"))
{
}

void
EventQueue::schedule(SimCycle due, int priority, Callback cb, bool wakes)
{
    ptl_assert(cb != nullptr);
    heap.push_back({due, priority, next_seq++, wakes, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), laterFirst);
    if (wakes)
        wake_count++;
    st_scheduled++;
    if (heap.size() > peak) {
        st_peak_pending += heap.size() - peak;
        peak = heap.size();
    }
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

}  // namespace ptl
