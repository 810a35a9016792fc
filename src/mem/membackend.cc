#include "mem/membackend.h"

#include <algorithm>
#include <deque>

#include "lib/logging.h"

namespace ptl {

namespace {

/**
 * The pre-refactor timing model: every access to main memory costs a
 * flat cfg.mem_latency. Stateless, so visit() carries only the model
 * tag and the default configuration stays bit-identical to
 * the original inline `latency += cfg.mem_latency`.
 */
class FixedLatencyBackend final : public MemBackend
{
  public:
    FixedLatencyBackend(const SimConfig &cfg, StatsTree &stats,
                        const std::string &prefix)
        : lat(cycles((U64)cfg.mem_latency)),
          st_reads(stats.counter(prefix + "membackend/reads")),
          st_writes(stats.counter(prefix + "membackend/writes"))
    {
    }

    SimCycle
    request(GuestPhys /*line_addr*/, bool is_write, SimCycle now) override
    {
        (is_write ? st_writes : st_reads)++;
        return now + lat;
    }

    void resetTimebase() override {}

    void visit(Archive &ar) override;

    AuditView audit() const override { return {}; }

    const char *name() const override { return "fixed"; }

  private:
    const CycleDelta lat;
    Counter &st_reads;
    Counter &st_writes;
};

// Each visit() opens with its model tag (the backend in the high
// half, the image layout version in the low half), so a load rejects
// an image written by another backend or layout.
void
FixedLatencyBackend::visit(Archive &ar)
{
    ar.tag(0xF1A7'0001);
}

/**
 * Rank/bank/row-buffer DRAM. A line maps to a bank by row
 * interleaving (consecutive rows rotate across banks, so consecutive
 * lines share a bank's open row); each bank keeps one open row and a
 * busy-until stamp. An access starts when its bank is free, then
 * pays t_cas on a row hit, t_rcd + t_cas on a closed bank, or
 * t_rp + t_rcd + t_cas on a row conflict.
 */
class BankedDramBackend final : public MemBackend
{
  public:
    BankedDramBackend(const SimConfig &cfg, StatsTree &stats,
                      const std::string &prefix)
        : p(cfg.membackend), banks((size_t)p.dram_banks),
          st_reads(stats.counter(prefix + "membackend/reads")),
          st_writes(stats.counter(prefix + "membackend/writes")),
          st_row_hits(stats.counter(prefix + "membackend/row_hits")),
          st_row_conflicts(
              stats.counter(prefix + "membackend/row_conflicts")),
          st_busy_waits(stats.counter(prefix + "membackend/busy_waits"))
    {
    }

    SimCycle
    request(GuestPhys line_addr, bool is_write, SimCycle now) override
    {
        (is_write ? st_writes : st_reads)++;
        Bank &b = banks[bankOf(line_addr)];
        U64 row = rowOf(line_addr);
        if (b.busy_until > now)
            st_busy_waits++;
        SimCycle start = std::max(now, b.busy_until);
        CycleDelta access;
        if (b.row_valid && b.open_row == row) {
            st_row_hits++;
            access = cycles((U64)p.t_cas);
        } else if (b.row_valid) {
            st_row_conflicts++;
            access = cycles((U64)(p.t_rp + p.t_rcd + p.t_cas));
        } else {
            access = cycles((U64)(p.t_rcd + p.t_cas));
        }
        b.busy_until = start + access;
        b.open_row = row;
        b.row_valid = true;
        return b.busy_until;
    }

    void
    resetTimebase() override
    {
        for (Bank &b : banks)
            b = Bank{};
    }

    void visit(Archive &ar) override;

    AuditView
    audit() const override
    {
        AuditView v;
        v.banked = true;
        for (const Bank &b : banks)
            v.max_bank_busy = std::max(v.max_bank_busy, b.busy_until);
        return v;
    }

    const char *name() const override { return "banked-dram"; }

  private:
    struct Bank
    {
        SimCycle busy_until;
        U64 open_row = 0;
        bool row_valid = false;
    };

    size_t
    bankOf(GuestPhys line_addr) const
    {
        return (size_t)((line_addr.raw() / (U64)p.row_bytes)
                        % (U64)p.dram_banks);
    }
    U64
    rowOf(GuestPhys line_addr) const
    {
        return line_addr.raw() / ((U64)p.row_bytes * (U64)p.dram_banks);
    }

    const MemBackendParams p;
    std::vector<Bank> banks;
    Counter &st_reads;
    Counter &st_writes;
    Counter &st_row_hits;
    Counter &st_row_conflicts;
    Counter &st_busy_waits;
};

void
BankedDramBackend::visit(Archive &ar)
{
    ar.tag(0xBA2C'0001);
    ar.size(banks.size());
    for (Bank &b : banks)
        ar(b.busy_until, b.open_row, b.row_valid);
}

/**
 * eDRAM cache fronting a PCM store. The set-associative eDRAM tag
 * array absorbs hits at edram_latency; a miss fetches the line from
 * PCM (pcm_read_latency, per-bank busy stamps). PCM writes are slow
 * and asymmetric, so dirty eDRAM victims are not written through:
 * they enter a bounded deferred-write queue that drains FIFO onto
 * idle banks as simulated time passes — and synchronously (a forced
 * drain) when the queue is full.
 *
 * All drain decisions depend only on typed stamps, never on how
 * often drainTo() is called, so the model is deterministic under any
 * pump cadence (including skip-ahead cores).
 */
class HybridBackend final : public MemBackend
{
  public:
    HybridBackend(const SimConfig &cfg, StatsTree &stats,
                  const std::string &prefix)
        : p(cfg.membackend),
          line_bytes(p.edram_line_bytes), ways(p.edram_ways),
          sets(edramSets(p)),
          edram((size_t)sets * ways), banks((size_t)p.dram_banks),
          st_edram_hits(stats.counter(prefix + "membackend/edram_hits")),
          st_edram_misses(
              stats.counter(prefix + "membackend/edram_misses")),
          st_pcm_reads(stats.counter(prefix + "membackend/pcm_reads")),
          st_pcm_writes(stats.counter(prefix + "membackend/pcm_writes")),
          st_deferred_enq(
              stats.counter(prefix + "membackend/deferred_enqueued")),
          st_deferred_drains(
              stats.counter(prefix + "membackend/deferred_drained")),
          st_deferred_forced(
              stats.counter(prefix + "membackend/deferred_forced"))
    {
    }

    SimCycle
    request(GuestPhys line_addr, bool is_write, SimCycle now) override
    {
        drainTo(now);
        GuestPhys line = line_addr.alignedDown((U64)line_bytes);
        int set = setOf(line);
        U64 tag = tagOf(line);
        EdramLine *base = &edram[(size_t)set * ways];
        for (int w = 0; w < ways; w++) {
            if (base[w].valid && base[w].tag == tag) {
                st_edram_hits++;
                base[w].stamp = ++tick;
                if (is_write)
                    base[w].dirty = true;
                return now + cycles((U64)p.edram_latency);
            }
        }
        st_edram_misses++;
        // Fetch the line from PCM (write misses allocate too: the
        // store merges into the fetched line inside the eDRAM).
        PcmBank &b = banks[bankOf(line)];
        SimCycle start = std::max(now, b.busy_until);
        b.busy_until = start + cycles((U64)p.pcm_read_latency);
        st_pcm_reads++;
        // Victim: invalid way first, else least-recently used.
        int way = -1;
        for (int w = 0; w < ways; w++) {
            if (!base[w].valid) {
                way = w;
                break;
            }
        }
        if (way < 0) {
            way = 0;
            for (int w = 1; w < ways; w++) {
                if (base[w].stamp < base[way].stamp)
                    way = w;
            }
        }
        EdramLine &v = base[way];
        if (v.valid && v.dirty)
            enqueueDeferred(lineAddrOf(set, v.tag), now);
        v.tag = tag;
        v.valid = true;
        v.dirty = is_write;
        v.stamp = ++tick;
        return b.busy_until + cycles((U64)p.edram_latency);
    }

    SimCycle
    nextDue() const override
    {
        if (deferred.empty())
            return CYCLE_NEVER;
        const DeferredWrite &w = deferred.front();
        return std::max(w.enq, banks[bankOf(w.line)].busy_until);
    }

    void
    drainTo(SimCycle now) override
    {
        // FIFO drain onto idle banks: the head write issues once its
        // bank's busy-until stamp has passed. Start stamps depend
        // only on (enq, busy_until), never on the call cadence.
        while (!deferred.empty()) {
            const DeferredWrite &w = deferred.front();
            PcmBank &b = banks[bankOf(w.line)];
            if (b.busy_until > now)
                break;
            SimCycle start = std::max(b.busy_until, w.enq);
            if (start > now)
                break;
            b.busy_until = start + cycles((U64)p.pcm_write_latency);
            st_pcm_writes++;
            st_deferred_drains++;
            deferred.pop_front();
        }
    }

    void
    resetTimebase() override
    {
        // Quiesce to a cold memory model: the machine checkpoint
        // protocol resets BOTH the capturing and the restoring side,
        // so a cold model on each keeps resumes cycle-exact.
        for (PcmBank &b : banks)
            b = PcmBank{};
        deferred.clear();
        std::fill(edram.begin(), edram.end(), EdramLine{});
        tick = 0;
    }

    void visit(Archive &ar) override;

    AuditView
    audit() const override
    {
        AuditView v;
        v.banked = true;
        v.deferred_depth = deferred.size();
        v.deferred_capacity = (size_t)p.deferred_writes;
        for (const PcmBank &b : banks)
            v.max_bank_busy = std::max(v.max_bank_busy, b.busy_until);
        return v;
    }

    const char *name() const override { return "hybrid"; }

  private:
    struct EdramLine
    {
        U64 tag = 0;
        U64 stamp = 0;
        bool valid = false;
        bool dirty = false;
    };
    struct DeferredWrite
    {
        GuestPhys line;
        SimCycle enq;
    };
    struct PcmBank
    {
        SimCycle busy_until;
    };

    static int
    edramSets(const MemBackendParams &mp)
    {
        CacheParams geom;
        geom.size_bytes = mp.edram_size_bytes;
        geom.ways = mp.edram_ways;
        geom.line_bytes = mp.edram_line_bytes;
        return geom.sets();
    }

    int setOf(GuestPhys line) const
    {
        return (int)((line.raw() / (U64)line_bytes) & (U64)(sets - 1));
    }
    U64 tagOf(GuestPhys line) const
    {
        return (line.raw() / (U64)line_bytes) / (U64)sets;
    }
    GuestPhys lineAddrOf(int set, U64 tag) const
    {
        return GuestPhys((tag * (U64)sets + (U64)set) * (U64)line_bytes);
    }
    size_t bankOf(GuestPhys line) const
    {
        return (size_t)((line.raw() / (U64)p.row_bytes)
                        % (U64)p.dram_banks);
    }

    void
    enqueueDeferred(GuestPhys line, SimCycle now)
    {
        if ((int)deferred.size() >= p.deferred_writes) {
            // Queue full: the oldest write drains synchronously,
            // stalling on its (possibly busy) bank.
            const DeferredWrite &w = deferred.front();
            PcmBank &b = banks[bankOf(w.line)];
            SimCycle start = std::max({now, b.busy_until, w.enq});
            b.busy_until = start + cycles((U64)p.pcm_write_latency);
            st_pcm_writes++;
            st_deferred_forced++;
            deferred.pop_front();
        }
        deferred.push_back(DeferredWrite{line, now});
        st_deferred_enq++;
    }

    const MemBackendParams p;
    const int line_bytes;
    const int ways;
    const int sets;
    std::vector<EdramLine> edram;
    std::vector<PcmBank> banks;
    std::deque<DeferredWrite> deferred;
    U64 tick = 0;
    Counter &st_edram_hits;
    Counter &st_edram_misses;
    Counter &st_pcm_reads;
    Counter &st_pcm_writes;
    Counter &st_deferred_enq;
    Counter &st_deferred_drains;
    Counter &st_deferred_forced;
};

void
HybridBackend::visit(Archive &ar)
{
    ar.tag(0x4B1D'0002);
    ar(tick);
    ar.size(edram.size());
    for (EdramLine &l : edram)
        ar(l.tag, l.stamp, l.valid, l.dirty);
    ar.size(banks.size());
    for (PcmBank &b : banks)
        ar(b.busy_until);
    ar.length(deferred);
    for (DeferredWrite &w : deferred)
        ar(w.line, w.enq);
}

}  // namespace

std::unique_ptr<MemBackend>
makeMemBackend(const SimConfig &cfg, StatsTree &stats,
               const std::string &prefix)
{
    switch (cfg.membackend.kind) {
    case MemBackendKind::Fixed:
        return std::make_unique<FixedLatencyBackend>(cfg, stats, prefix);
    case MemBackendKind::BankedDram:
        return std::make_unique<BankedDramBackend>(cfg, stats, prefix);
    case MemBackendKind::Hybrid:
        return std::make_unique<HybridBackend>(cfg, stats, prefix);
    }
    fatal("unknown memory backend kind %d", (int)cfg.membackend.kind);
}

}  // namespace ptl
