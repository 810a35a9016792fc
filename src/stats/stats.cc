#include "stats/stats.h"

#include <sstream>

#include "lib/logging.h"

namespace ptl {

Counter &
StatsTree::counter(const std::string &path)
{
    auto it = index.find(path);
    if (it != index.end())
        return storage[it->second];
    index.emplace(path, storage.size());
    order.push_back(path);
    storage.emplace_back();
    return storage.back();
}

U64
StatsTree::get(const std::string &path) const
{
    auto it = index.find(path);
    return (it == index.end()) ? 0 : storage[it->second].value();
}

bool
StatsTree::has(const std::string &path) const
{
    return index.count(path) != 0;
}

void
StatsTree::takeSnapshot(SimCycle cycle)
{
    StatsSnapshot snap;
    snap.cycle = cycle;
    snap.values.reserve(storage.size());
    for (const Counter &c : storage)
        snap.values.push_back(c.value());
    snapshots.push_back(std::move(snap));
}

std::vector<U64>
StatsTree::deltaSeries(const std::string &path) const
{
    std::vector<U64> out;
    auto it = index.find(path);
    if (it == index.end() || snapshots.size() < 2)
        return out;
    size_t idx = it->second;
    out.reserve(snapshots.size() - 1);
    for (size_t i = 1; i < snapshots.size(); i++) {
        // Counters registered after an early snapshot appear as 0 there.
        U64 prev = idx < snapshots[i - 1].values.size()
                       ? snapshots[i - 1].values[idx] : 0;
        U64 cur = idx < snapshots[i].values.size()
                      ? snapshots[i].values[idx] : 0;
        ptl_assert(cur >= prev);
        out.push_back(cur - prev);
    }
    return out;
}

std::vector<double>
StatsTree::rateSeries(const std::string &numerator,
                      const std::string &denominator) const
{
    std::vector<U64> num = deltaSeries(numerator);
    std::vector<U64> den = deltaSeries(denominator);
    std::vector<double> out;
    out.reserve(num.size());
    for (size_t i = 0; i < num.size() && i < den.size(); i++)
        out.push_back(den[i] ? 100.0 * (double)num[i] / (double)den[i] : 0.0);
    return out;
}

std::vector<std::string>
StatsTree::paths() const
{
    return order;
}

std::string
StatsTree::renderTable(const std::string &prefix) const
{
    size_t width = 0;
    for (const auto &p : order)
        if (p.rfind(prefix, 0) == 0)
            width = std::max(width, p.size());
    std::ostringstream out;
    for (size_t i = 0; i < order.size(); i++) {
        if (order[i].rfind(prefix, 0) != 0)
            continue;
        out << order[i];
        out << std::string(width - order[i].size() + 2, ' ');
        out << storage[i].value() << '\n';
    }
    return out.str();
}

void
StatsTree::reset()
{
    for (Counter &c : storage)
        c = Counter();
    snapshots.clear();
}

}  // namespace ptl
