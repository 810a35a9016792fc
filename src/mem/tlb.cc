#include "mem/tlb.h"

#include <algorithm>

#include "lib/logging.h"

namespace ptl {

Tlb::Tlb(int entry_count, int way_count)
    : sets(entry_count / way_count), ways(way_count),
      tags((size_t)entry_count, NO_TAG), stamps((size_t)entry_count, 0),
      entries((size_t)entry_count)
{
    ptl_assert(entry_count > 0 && way_count > 0);
    ptl_assert(entry_count % way_count == 0);
    ptl_assert(isPow2((U64)sets));
}

const TlbEntry *
Tlb::lookup(Vpn vpn)
{
    size_t base = setBase(vpn);
    const U64 *tag = &tags[base];
    for (int w = 0; w < ways; w++) {
        if (tag[w] == vpn.raw()) {
            stamps[base + w] = ++tick;
            return &entries[base + w];
        }
    }
    return nullptr;
}

void
Tlb::insert(const TlbEntry &entry)
{
    ptl_assert(entry.vpn.raw() != NO_TAG);
    size_t base = setBase(entry.vpn);
    // The first way with the smallest stamp: the first invalid way
    // (stamp 0), else the least recently used one.
    const U64 *stamp = &stamps[base];
    int victim = 0;
    for (int w = 1; w < ways; w++) {
        if (stamp[w] < stamp[victim])
            victim = w;
    }
    tags[base + victim] = entry.vpn.raw();
    stamps[base + victim] = ++tick;
    entries[base + victim] = entry;
}

void
Tlb::flushAll()
{
    std::fill(tags.begin(), tags.end(), NO_TAG);
    std::fill(stamps.begin(), stamps.end(), 0);
}

void
Tlb::flushVpn(Vpn vpn)
{
    size_t base = setBase(vpn);
    for (int w = 0; w < ways; w++) {
        if (tags[base + w] == vpn.raw()) {
            tags[base + w] = NO_TAG;
            stamps[base + w] = 0;
        }
    }
}

GuestPhys
PdeCache::lookup(GuestVirt va)
{
    U64 key = keyOf(va);
    for (Node &n : nodes) {
        if (n.key == key) {
            n.lru = ++tick;
            return n.table_paddr;
        }
    }
    return GuestPhys(0);
}

void
PdeCache::insert(GuestVirt va, GuestPhys table_paddr)
{
    U64 key = keyOf(va);
    for (Node &n : nodes) {
        if (n.key == key) {
            n.table_paddr = table_paddr;
            n.lru = ++tick;
            return;
        }
    }
    if ((int)nodes.size() < capacity) {
        nodes.push_back({key, table_paddr, ++tick});
        return;
    }
    Node *victim = &nodes[0];
    for (Node &n : nodes) {
        if (n.lru < victim->lru)
            victim = &n;
    }
    *victim = {key, table_paddr, ++tick};
}

void
PdeCache::flushAll()
{
    nodes.clear();
}

}  // namespace ptl
