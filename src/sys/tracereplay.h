/**
 * @file
 * Interrupt + DMA trace recording and injection (Section 4.2).
 *
 * The paper describes the record-and-replay scheme used by commercial
 * simulation flows: checkpoint the machine, record every incoming
 * interrupt and DMA write with its cycle stamp, then re-run from the
 * checkpoint injecting the recorded events at exactly the recorded
 * cycles — guaranteeing deterministic, infinitely repeatable
 * simulation of external bus traffic. DeviceTrace records; a replayer
 * (driven by the machine loop) injects.
 */

#ifndef PTLSIM_SYS_TRACEREPLAY_H_
#define PTLSIM_SYS_TRACEREPLAY_H_

#include <vector>

#include "lib/simtime.h"
#include "mem/pagetable.h"
#include "stats/stats.h"

namespace ptl {

class EventChannels;
class SystemInterface;

/** One recorded external event: an interrupt, optionally with the DMA
 *  bytes the device wrote immediately before raising it. */
struct TraceRecord
{
    SimCycle cycle;
    int port = 0;
    U64 dma_va = 0;              ///< 0 = no DMA payload
    U64 dma_cr3 = 0;
    std::vector<U8> dma_data;
};

/** Recorder: devices append to it as they complete transfers. */
class DeviceTrace
{
  public:
    void
    record(SimCycle cycle, int port, U64 dma_va = 0, U64 dma_cr3 = 0,
           std::vector<U8> dma_data = {})
    {
        records.push_back(
            {cycle, port, dma_va, dma_cr3, std::move(dma_data)});
    }

    const std::vector<TraceRecord> &all() const { return records; }
    size_t size() const { return records.size(); }
    void clear() { records.clear(); }

  private:
    std::vector<TraceRecord> records;
};

/**
 * Injector: reads a recorded trace as a queue and applies each record
 * (DMA write + event) when the simulation reaches its cycle stamp.
 */
class TraceReplayer
{
  public:
    TraceReplayer(const DeviceTrace &trace, EventChannels &events,
                  AddressSpace &aspace, SystemInterface &sys);

    /** Inject everything stamped at or before `now`; returns count. */
    int processDue(SimCycle now);

    SimCycle nextDue() const;
    bool finished() const { return next >= trace->all().size(); }

  private:
    const DeviceTrace *trace;
    EventChannels *events;
    AddressSpace *aspace;
    SystemInterface *sys;  ///< snoops replayed DMA writes for code
    size_t next = 0;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_TRACEREPLAY_H_
