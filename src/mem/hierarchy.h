/**
 * @file
 * The per-core memory hierarchy: TLBs + hardware walk engine + caches.
 *
 * One MemoryHierarchy instance owns a core's L1I / banked L1D / L2 / L3
 * tag arrays, its DTLB/ITLB (plus the optional L2 TLB and PDE cache of
 * the k8-native reference configuration), the miss-buffer (MSHR) pool,
 * and the hardware page-table walk engine that injects four dependent
 * loads through the data cache on a TLB miss (Section 4.3). All timing
 * decisions are made on machine-physical addresses; functional data
 * always lives in PhysMem.
 *
 * Below the last cache level the hierarchy bottoms out in a pluggable
 * MemBackend (mem/membackend.h): demand fills, writebacks and bulk
 * prefetch fills all go through backend->request(), so swapping the
 * memory technology (fixed latency, banked DRAM, eDRAM+PCM hybrid) is
 * a config change, not a cache-code fork.
 */

#ifndef PTLSIM_MEM_HIERARCHY_H_
#define PTLSIM_MEM_HIERARCHY_H_

#include <memory>
#include <string>
#include <vector>

#include "lib/config.h"
#include "lib/simtime.h"
#include "mem/cache.h"
#include "mem/coherence.h"
#include "mem/membackend.h"
#include "mem/pagetable.h"
#include "mem/tlb.h"
#include "stats/stats.h"

namespace ptl {

/** Timing outcome of a cache access. */
struct MemResult
{
    CycleDelta latency;       ///< cycles until the data is available
    bool l1_hit = false;
    bool mshr_full = false;   ///< no miss buffer free: replay the op
    bool bank_conflict = false;///< L1D bank busy this cycle: 1-cycle replay
};

/** Timing + fault outcome of an address translation. */
struct TranslateResult
{
    CycleDelta latency;       ///< extra cycles (0 on a TLB hit)
    bool tlb_hit = false;
    bool tlb2_hit = false;
    GuestFault fault = GuestFault::None;
    GuestPhys paddr;          ///< machine-physical address (if no fault)
};

class MemoryHierarchy
{
  public:
    /**
     * @param prefix stats path prefix, e.g. "core0/"
     * @param coherence optional cross-core controller (multi-core)
     */
    MemoryHierarchy(const SimConfig &config, AddressSpace &aspace,
                    StatsTree &stats, const std::string &prefix,
                    CoherenceController *coherence = nullptr);

    /**
     * Data-side cache access at machine-physical `paddr`.
     * @param no_banking suppress bank-conflict modeling (walk engine)
     */
    MemResult dataAccess(GuestPhys paddr, bool is_write, SimCycle now,
                         bool no_banking = false);

    /** Instruction-side access (L1I -> L2 -> L3 -> memory). */
    MemResult fetchAccess(GuestPhys paddr, SimCycle now);

    /**
     * Data translation: DTLB lookup, then (on miss) L2 TLB, then the
     * hardware walk engine. Performs the microcode A/D-bit updates.
     */
    TranslateResult translateData(Pfn cr3, GuestVirt va, bool is_write,
                                  bool user_mode, SimCycle now);

    /** Instruction translation via the ITLB. */
    TranslateResult translateFetch(Pfn cr3, GuestVirt va, bool user_mode,
                                   SimCycle now);

    /** CR3 reload: drop all TLB state (x86 has no ASIDs here). */
    void flushTlbs();

    /** Flush all cache tags (the paper's -perfctr pre-run flush). */
    void flushCaches();

    /**
     * Virtual time warped (checkpoint restore): drop in-flight miss
     * tracking, the per-cycle bank occupancy, and the backend's
     * absolute bank/queue stamps, which would otherwise charge
     * phantom multi-thousand-cycle fill waits against the rolled-back
     * clock.
     */
    void
    resetTimebase()
    {
        mshrs.clear();
        bank_cycle = CYCLE_NEVER;
        bank_mask = 0;
        backend->resetTimebase();
    }

    /** The main-memory timing model this hierarchy bottoms out in. */
    MemBackend &memBackend() { return *backend; }

    /**
     * Earliest cycle at which the backend has deferred work due, or
     * CYCLE_NEVER. Cores fold this into their sleep hints so
     * skip-ahead never overshoots a pending deferred-write drain.
     */
    SimCycle backendNextDue() const { return backend->nextDue(); }

    /** Pump the backend's lazy maintenance up to `now`. */
    void drainBackend(SimCycle now) { backend->drainTo(now); }

    /** Coherence downgrade from a peer core. */
    void invalidateLine(GuestPhys line_addr);

    /** Make a peer's write visible: downgrade M/E/O to Shared. */
    void downgradeLine(GuestPhys line_addr);

    const SimConfig &config() const { return cfg; }
    AddressSpace &addressSpace() { return *aspace; }

  private:
    /** Shared L1-miss path: L2 -> L3 -> backend/coherence. */
    CycleDelta missPath(GuestPhys paddr, bool is_write, bool is_fetch,
                        SimCycle now);
    /** Bring `next_line` into L1D/L2 ahead of demand (stream prefetch). */
    void issuePrefetch(GuestPhys next_line, SimCycle now);
    /** The one L2 fill: insert the line and retire the victim (L1
     *  inclusion, dirty writeback, coherence eviction notice). */
    CacheArray::Line *fillL2(GuestPhys paddr, LineState state, SimCycle now);
    TranslateResult translateCommon(Pfn cr3, GuestVirt va, MemAccess kind,
                                    bool user_mode, SimCycle now, Tlb &tlb,
                                    Counter &hits, Counter &misses);
    /** The walk's dependent PTE loads; when `permitted` (the access
     *  passed its permission check), also the A/D update and its
     *  locked RMW. */
    CycleDelta walkTiming(Pfn cr3, GuestVirt va, PageWalk &walk,
                          bool permitted, bool is_write, SimCycle now);

    SimConfig cfg;
    AddressSpace *aspace;
    CoherenceController *coherence;
    int core_id = 0;

    CacheArray l1i;
    CacheArray l1d;
    CacheArray l2;
    CacheArray l3;
    std::unique_ptr<MemBackend> backend;
    Tlb dtlb;
    Tlb itlb;
    Tlb tlb2;              ///< 0-entry sentinel when disabled
    bool tlb2_enabled;
    PdeCache pde_cache;
    bool pde_enabled;

    struct Mshr { GuestPhys line; SimCycle ready; };
    std::vector<Mshr> mshrs;

    // L1D banking: per-cycle bank occupancy bitmap.
    SimCycle bank_cycle = CYCLE_NEVER;
    U32 bank_mask = 0;

    // Statistics.
    Counter &st_d_accesses;
    Counter &st_d_misses;
    Counter &st_d_bank_conflicts;
    Counter &st_i_accesses;
    Counter &st_i_misses;
    Counter &st_l2_accesses;
    Counter &st_l2_misses;
    Counter &st_l3_accesses;
    Counter &st_l3_misses;
    Counter &st_mem_accesses;
    Counter &st_dtlb_accesses;
    Counter &st_dtlb_hits;
    Counter &st_dtlb_misses;
    Counter &st_dtlb_l2_hits;
    Counter &st_itlb_accesses;
    Counter &st_itlb_hits;
    Counter &st_itlb_misses;
    Counter &st_walks;
    Counter &st_walk_loads;
    Counter &st_prefetches;
    Counter &st_mshr_full;
    Counter &st_writebacks;
};

}  // namespace ptl

#endif  // PTLSIM_MEM_HIERARCHY_H_
