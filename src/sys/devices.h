/**
 * @file
 * Virtual devices: console, block device, network.
 *
 * These play the role of Xen's split (frontend/backend) paravirtual
 * drivers: the guest kernel requests I/O via hypercalls, the device
 * models complete it after a configurable latency measured in
 * simulated cycles, and completion is signaled on an event channel.
 * All completions flow through the machine's central EventQueue, so
 * I/O timing is fully deterministic (Section 4.2); a DeviceTrace can
 * record every interrupt + DMA for the paper's record-and-replay
 * injection scheme. Each device owns its in-flight payload queue
 * (checkpointed by its visit) and arms a queue event per request; the
 * event callback drains everything due, so spurious later events for
 * an already-drained head are harmless no-ops.
 */

#ifndef PTLSIM_SYS_DEVICES_H_
#define PTLSIM_SYS_DEVICES_H_

#include <deque>
#include <string>
#include <vector>

#include "sys/events.h"
#include "sys/timekeeper.h"
#include "sys/tracereplay.h"

namespace ptl {

/** Console output sink (the PTLmon-proxied console of Section 4). */
class Console
{
  public:
    explicit Console(StatsTree &stats)
        : st_bytes(stats.counter("console/bytes"))
    {
    }

    void
    write(const void *data, size_t n)
    {
        text.append((const char *)data, n);
        st_bytes += n;
    }

    const std::string &output() const { return text; }
    void clear() { text.clear(); }

  private:
    std::string text;
    Counter &st_bytes;
};

constexpr U64 DISK_SECTOR_BYTES = 512;

/** Paravirtual block device with DMA latency + completion events. */
class VirtualDisk
{
  public:
    /** One in-flight transfer. */
    struct Pending
    {
        SimCycle ready;
        U64 sector;
        U64 count;
        GuestVirt dest_va;
        Pfn cr3;
    };

    VirtualDisk(EventChannels &events, EventQueue &queue,
                TimeKeeper &time, int latency_us, AddressSpace &aspace,
                SystemInterface &sys, StatsTree &stats);

    void setImage(std::vector<U8> data) { image = std::move(data); }
    U64 sectorCount() const { return image.size() / DISK_SECTOR_BYTES; }

    /**
     * Begin an asynchronous read of `count` sectors into the guest at
     * `dest_va` (translated under the requesting context's CR3 at
     * completion time). Returns false on out-of-range requests.
     */
    bool read(const Context &ctx, U64 sector, U64 count,
              GuestVirt dest_va);

    /** Complete any transfers due at `now` (DMA copy + event).
     *  Normally fired by the EventQueue; FIFO completion order. */
    void processDue(SimCycle now);

    /** In-flight transfers, oldest first. */
    const std::deque<Pending> &pendingTransfers() const
    {
        return pending;
    }

    /** Checkpoint: the in-flight transfers. */
    void visit(Archive &ar);

    /** Arm a completion event per in-flight transfer (checkpoint
     *  restore; call after EventQueue::clear()). */
    void
    rearm()
    {
        for (const Pending &p : pending)
            armCompletion(p.ready);
    }

    void attachTrace(DeviceTrace *t) { trace = t; }

  private:
    void armCompletion(SimCycle ready);

    EventChannels *const events;
    EventQueue *const queue;
    TimeKeeper *const time;
    AddressSpace *const aspace;
    SystemInterface *const sys;  ///< snoops DMA writes for code
    const CycleDelta latency_cycles;
    std::vector<U8> image;  // simlint: transient (disk contents, setImage)
    std::deque<Pending> pending;
    DeviceTrace *trace = nullptr;  // simlint: transient (attachTrace)
    Counter &st_reads;
    Counter &st_sectors;
};

constexpr size_t NET_MTU = 1500;

/**
 * Paravirtual network: endpoint-addressed byte streams with a
 * configurable delivery latency. Both benchmark endpoints live in the
 * same domain (as in the paper's rsync-over-ssh setup), so this models
 * the loopback path through a "netfront/netback"-style device pair —
 * crucially *with* latency, so the guest spends real idle time waiting
 * for packets instead of spinning at simulator speed (Section 4.2's
 * time-dilation discussion).
 */
class VirtualNet
{
  public:
    /** One in-flight packet. */
    struct Packet
    {
        SimCycle ready;
        int to_ep;
        std::vector<U8> data;
    };

    VirtualNet(EventChannels &events, EventQueue &queue,
               TimeKeeper &time, int latency_us, int endpoints,
               StatsTree &stats);

    int endpointCount() const { return (int)rx.size(); }

    /** Queue `len` bytes for delivery to endpoint `to_ep`. */
    void send(int to_ep, const U8 *data, size_t len);

    /** Dequeue up to `maxlen` delivered bytes at `ep`; returns count. */
    size_t recv(int ep, U8 *out, size_t maxlen);

    size_t available(int ep) const { return rx[ep].size(); }

    /** Deliver all packets due at `now`, in send order. Normally
     *  fired by the EventQueue. */
    void processDue(SimCycle now);

    /** In-flight packets, send order. */
    const std::deque<Packet> &inFlight() const { return in_flight; }

    /** Checkpoint: in-flight packets, delivered-but-unread bytes and
     *  the per-endpoint FIFO floors. */
    void visit(Archive &ar);

    /** Arm a delivery event per in-flight packet (checkpoint restore;
     *  call after EventQueue::clear()). */
    void
    rearm()
    {
        for (const Packet &p : in_flight)
            armDelivery(p.ready);
    }

    void attachTrace(DeviceTrace *t) { trace = t; }

  private:
    void armDelivery(SimCycle ready);

    EventChannels *const events;
    EventQueue *const queue;
    TimeKeeper *const time;
    const CycleDelta latency_cycles;
    std::deque<Packet> in_flight;
    std::vector<std::deque<U8>> rx;
    std::vector<SimCycle> last_ready;  ///< per-endpoint FIFO ordering floor
    DeviceTrace *trace = nullptr;  // simlint: transient (attachTrace)
    Counter &st_packets;
    Counter &st_bytes;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_DEVICES_H_
