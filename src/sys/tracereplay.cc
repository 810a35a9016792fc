#include "sys/tracereplay.h"

#include "lib/logging.h"
#include "sys/events.h"

namespace ptl {

TraceReplayer::TraceReplayer(const DeviceTrace &recorded,
                             EventChannels &channels, AddressSpace &addrspace,
                             SystemInterface &system)
    : trace(&recorded), events(&channels), aspace(&addrspace), sys(&system)
{
}

int
TraceReplayer::processDue(SimCycle now)
{
    int n = 0;
    const auto &records = trace->all();
    while (next < records.size() && records[next].cycle <= now) {
        const TraceRecord &r = records[next++];
        if (r.dma_va && !r.dma_data.empty()) {
            // DMA writes land via the recorded translation context.
            Context dma_ctx;
            dma_ctx.cr3 = Pfn(r.dma_cr3);
            dma_ctx.kernel_mode = true;
            GuestCopy g = guestCopyOut(*aspace, dma_ctx,
                                       GuestVirt(r.dma_va),
                                       r.dma_data.data(),
                                       r.dma_data.size(), sys);
            if (!g.ok())
                panic("trace replay: DMA target unmapped");
        }
        events->send(r.port);
        n++;
    }
    return n;
}

SimCycle
TraceReplayer::nextDue() const
{
    const auto &records = trace->all();
    return (next < records.size()) ? records[next].cycle : CYCLE_NEVER;
}

}  // namespace ptl
