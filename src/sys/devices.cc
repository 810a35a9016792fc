#include "sys/devices.h"

#include <cstring>

#include "lib/archive.h"
#include "lib/logging.h"

namespace ptl {

VirtualDisk::VirtualDisk(EventChannels &channels, EventQueue &eventq,
                         TimeKeeper &timekeeper, int latency_us,
                         AddressSpace &addrspace, SystemInterface &system,
                         StatsTree &stats)
    : events(&channels), queue(&eventq), time(&timekeeper),
      aspace(&addrspace), sys(&system),
      latency_cycles(timekeeper.usToCycles((U64)latency_us)),
      st_reads(stats.counter("disk/reads")),
      st_sectors(stats.counter("disk/sectors"))
{
}

void
VirtualDisk::armCompletion(SimCycle ready)
{
    queue->schedule(ready, EVPRI_DISK,
                    [this](SimCycle now) { processDue(now); });
}

bool
VirtualDisk::read(const Context &ctx, U64 sector, U64 count,
                  GuestVirt dest_va)
{
    if (sector + count > sectorCount() || count == 0)
        return false;
    st_reads++;
    st_sectors += count;
    // Longer transfers take proportionally longer (seek + streaming).
    SimCycle ready = time->cycle() + latency_cycles
                     + count * time->usToCycles(1);
    pending.push_back({ready, sector, count, dest_va, ctx.cr3});
    armCompletion(ready);
    return true;
}

void
VirtualDisk::visit(Archive &ar)
{
    ar.length(pending);
    for (Pending &p : pending) {
        ar(p.ready, p.sector, p.count, p.dest_va, p.cr3);
        // processDue copies these sectors out of the image; the bound
        // is written so that no sector or count word can wrap it.
        if (p.count > sectorCount() || p.sector > sectorCount() - p.count)
            fatal("checkpoint: disk transfer of %llu sectors at sector "
                  "%llu exceeds the %llu-sector image",
                  (unsigned long long)p.count,
                  (unsigned long long)p.sector,
                  (unsigned long long)sectorCount());
    }
}

void
VirtualDisk::processDue(SimCycle now)
{
    while (!pending.empty() && pending.front().ready <= now) {
        Pending p = pending.front();
        pending.pop_front();
        // DMA the sectors into guest memory under the captured CR3.
        Context dma_ctx;
        dma_ctx.cr3 = p.cr3;
        dma_ctx.kernel_mode = true;
        size_t bytes = (size_t)(p.count * DISK_SECTOR_BYTES);
        size_t offset = (size_t)(p.sector * DISK_SECTOR_BYTES);
        GuestCopy g = guestCopyOut(*aspace, dma_ctx, p.dest_va,
                                   &image[offset], bytes, sys);
        if (!g.ok())
            panic("disk DMA target unmapped at va %llx",
                  (unsigned long long)g.fault_va.raw());
        if (trace) {
            trace->record(now, PORT_DISK, p.dest_va.raw(), p.cr3.raw(),
                          std::vector<U8>(image.begin() + offset,
                                          image.begin() + offset + bytes));
        }
        events->send(PORT_DISK);
    }
}

VirtualNet::VirtualNet(EventChannels &channels, EventQueue &eventq,
                       TimeKeeper &timekeeper, int latency_us,
                       int endpoints, StatsTree &stats)
    : events(&channels), queue(&eventq), time(&timekeeper),
      latency_cycles(timekeeper.usToCycles((U64)latency_us)),
      rx((size_t)endpoints), last_ready((size_t)endpoints, SimCycle(0)),
      st_packets(stats.counter("net/packets")),
      st_bytes(stats.counter("net/bytes"))
{
}

void
VirtualNet::armDelivery(SimCycle ready)
{
    queue->schedule(ready, EVPRI_NET,
                    [this](SimCycle now) { processDue(now); });
}

void
VirtualNet::send(int to_ep, const U8 *data, size_t len)
{
    ptl_assert(to_ep >= 0 && to_ep < endpointCount());
    st_packets++;
    st_bytes += len;
    // Split into MTU-sized packets, each with the delivery latency
    // (pipelined: later fragments arrive a little later). Delivery is
    // FIFO per endpoint — a TCP-like byte stream — so a send can never
    // overtake the in-flight tail of an earlier send to the same
    // endpoint.
    size_t off = 0;
    SimCycle base = std::max(time->cycle() + latency_cycles,
                             last_ready[to_ep]);
    int frag = 0;
    while (off < len) {
        size_t chunk = std::min(len - off, NET_MTU);
        Packet p;
        p.ready = base + (U64)frag * time->usToCycles(2);
        last_ready[to_ep] = p.ready;
        p.to_ep = to_ep;
        p.data.assign(data + off, data + off + chunk);
        armDelivery(p.ready);
        in_flight.push_back(std::move(p));
        off += chunk;
        frag++;
    }
}

void
VirtualNet::visit(Archive &ar)
{
    ar.length(in_flight);
    for (Packet &p : in_flight) {
        ar(p.ready, p.to_ep);
        if (p.to_ep < 0 || p.to_ep >= endpointCount())
            fatal("checkpoint: in-flight packet to endpoint %d on a "
                  "%d-endpoint network", p.to_ep, endpointCount());
        ar.bytes(p.data);
    }
    ar.size(rx.size());
    for (std::deque<U8> &q : rx)
        ar.bytes(q);
    ar.size(last_ready.size());
    for (SimCycle &floor : last_ready)
        ar(floor);
}

size_t
VirtualNet::recv(int ep, U8 *out, size_t maxlen)
{
    ptl_assert(ep >= 0 && ep < endpointCount());
    std::deque<U8> &q = rx[ep];
    size_t n = std::min(maxlen, q.size());
    for (size_t i = 0; i < n; i++) {
        out[i] = q.front();
        q.pop_front();
    }
    return n;
}

void
VirtualNet::processDue(SimCycle now)
{
    // in_flight is in send order; delivery times are monotone per
    // destination but interleaved across destinations, so scan.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->ready <= now) {
            rx[it->to_ep].insert(rx[it->to_ep].end(), it->data.begin(),
                                 it->data.end());
            if (trace)
                trace->record(now, PORT_NET_BASE + it->to_ep);
            events->send(PORT_NET_BASE + it->to_ep);
            it = in_flight.erase(it);
        } else {
            ++it;
        }
    }
}

}  // namespace ptl
