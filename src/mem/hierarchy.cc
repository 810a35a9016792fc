#include "mem/hierarchy.h"

#include "lib/logging.h"

namespace ptl {

MemoryHierarchy::MemoryHierarchy(const SimConfig &config,
                                 AddressSpace &addrspace, StatsTree &stats,
                                 const std::string &prefix,
                                 CoherenceController *coherence_ctl)
    : cfg(config), aspace(&addrspace), coherence(coherence_ctl),
      l1i(config.l1i,
          &stats.counter(prefix + "icache/policy_evictions"),
          config.seed ^ 0x11),
      l1d(config.l1d,
          &stats.counter(prefix + "dcache/policy_evictions"),
          config.seed ^ 0x1d),
      l2(config.l2, &stats.counter(prefix + "l2/policy_evictions"),
         config.seed ^ 0x22),
      l3(config.l3, &stats.counter(prefix + "l3/policy_evictions"),
         config.seed ^ 0x33),
      backend(makeMemBackend(config, stats, prefix)),
      dtlb(config.dtlb_entries, config.dtlb_entries),   // fully associative
      itlb(config.itlb_entries, config.itlb_entries),
      tlb2(config.tlb2_entries ? config.tlb2_entries : config.tlb2_ways,
           config.tlb2_ways),
      tlb2_enabled(config.tlb2_entries > 0),
      pde_cache(24),
      pde_enabled(config.pde_cache),
      st_d_accesses(stats.counter(prefix + "dcache/accesses")),
      st_d_misses(stats.counter(prefix + "dcache/misses")),
      st_d_bank_conflicts(stats.counter(prefix + "dcache/bank_conflicts")),
      st_i_accesses(stats.counter(prefix + "icache/accesses")),
      st_i_misses(stats.counter(prefix + "icache/misses")),
      st_l2_accesses(stats.counter(prefix + "l2/accesses")),
      st_l2_misses(stats.counter(prefix + "l2/misses")),
      st_l3_accesses(stats.counter(prefix + "l3/accesses")),
      st_l3_misses(stats.counter(prefix + "l3/misses")),
      st_mem_accesses(stats.counter(prefix + "mem/accesses")),
      st_dtlb_accesses(stats.counter(prefix + "dtlb/accesses")),
      st_dtlb_hits(stats.counter(prefix + "dtlb/hits")),
      st_dtlb_misses(stats.counter(prefix + "dtlb/misses")),
      st_dtlb_l2_hits(stats.counter(prefix + "dtlb/l2_hits")),
      st_itlb_accesses(stats.counter(prefix + "itlb/accesses")),
      st_itlb_hits(stats.counter(prefix + "itlb/hits")),
      st_itlb_misses(stats.counter(prefix + "itlb/misses")),
      st_walks(stats.counter(prefix + "walker/walks")),
      st_walk_loads(stats.counter(prefix + "walker/loads")),
      st_prefetches(stats.counter(prefix + "dcache/prefetches")),
      st_mshr_full(stats.counter(prefix + "dcache/mshr_full")),
      st_writebacks(stats.counter(prefix + "mem/writebacks"))
{
    if (coherence)
        core_id = coherence->registerCore(this);
}

CycleDelta
MemoryHierarchy::missPath(GuestPhys paddr, bool is_write, bool is_fetch,
                          SimCycle now)
{
    // Ask the coherence fabric first: a peer cache may supply the line.
    CoherenceResult coh;
    if (coherence) {
        GuestPhys line = l1d.lineAddr(paddr);
        coh = is_write ? coherence->onWriteMiss(core_id, line)
                       : coherence->onReadMiss(core_id, line);
    }
    LineState fill_state =
        is_write ? LineState::Modified
                 : ((coherence && coh.peer_supplied) ? LineState::Shared
                                                     : LineState::Exclusive);
    CycleDelta upstream = (l2.enabled() ? l2.latency() : cycles(0))
                          + (l3.enabled() ? l3.latency() : cycles(0));
    CycleDelta latency;
    st_l2_accesses++;
    if (l2.enabled() && l2.lookup(paddr)) {
        latency = l2.latency();
        CacheArray::Line *l2line = l2.lookup(paddr);
        if (is_write)
            l2line->state = LineState::Modified;
        // Tagged stream prefetch: the first demand touch of a
        // prefetched line keeps the stream running one line ahead.
        if (cfg.hw_prefetch && l2line->prefetched && !is_fetch) {
            l2line->prefetched = false;
            issuePrefetch(l2.lineAddr(paddr) + (U64)l2.lineBytes(), now);
        }
    } else {
        st_l2_misses++;
        bool filled = false;
        if (l3.enabled()) {
            st_l3_accesses++;
            if (l3.lookup(paddr)) {
                latency = (l2.enabled() ? l2.latency() : cycles(0))
                          + l3.latency();
                filled = true;
            } else {
                st_l3_misses++;
            }
        }
        if (!filled) {
            if (coh.peer_supplied) {
                latency = (l2.enabled() ? l2.latency() : cycles(0))
                          + cycles((U64)coh.extra_latency);
            } else {
                st_mem_accesses++;
                // The memory leg is the backend's call: the request is
                // issued once the upstream levels have been traversed,
                // and the fill completes at whatever absolute cycle
                // the timing model reports (with FixedLatencyBackend
                // this reduces exactly to the old scalar addition).
                SimCycle done = backend->request(l1d.lineAddr(paddr),
                                                 is_write, now + upstream);
                latency = (done - now) + cycles((U64)coh.extra_latency);
            }
            if (l3.enabled()) {
                CacheArray::Eviction ev;
                l3.insert(paddr, fill_state, &ev);
            }
        }
        if (l2.enabled())
            fillL2(paddr, fill_state, now);
    }
    (is_fetch ? l1i : l1d).insert(paddr, fill_state);
    return latency;
}

CacheArray::Line *
MemoryHierarchy::fillL2(GuestPhys paddr, LineState state, SimCycle now)
{
    CacheArray::Eviction ev;
    CacheArray::Line *line = l2.insert(paddr, state, &ev);
    if (ev.valid) {
        // Enforce inclusion and report the eviction upstream; dirty
        // victims write back through the backend.
        l1d.invalidate(ev.line_addr);
        l1i.invalidate(ev.line_addr);
        if (lineDirty(ev.state)) {
            st_writebacks++;
            st_mem_accesses++;
            backend->request(ev.line_addr, true, now);
        }
        if (coherence)
            coherence->onEvict(core_id, ev.line_addr, ev.state);
    }
    return line;
}

MemResult
MemoryHierarchy::dataAccess(GuestPhys paddr, bool is_write, SimCycle now,
                            bool no_banking)
{
    MemResult out;
    // Bank-conflict model: the K8 L1D is pseudo-dual-ported with 8
    // banks on 64-bit boundaries; two same-cycle accesses to one bank
    // force a 1-cycle replay of the collider (Section 5).
    if (cfg.enforce_banking && !no_banking && l1d.banks() > 1) {
        if (now != bank_cycle) {
            bank_cycle = now;
            bank_mask = 0;
        }
        U32 bit = 1u << l1d.bankOf(paddr);
        if (bank_mask & bit) {
            st_d_bank_conflicts++;
            out.bank_conflict = true;
            out.latency = cycles(1);
            return out;
        }
        bank_mask |= bit;
    }

    st_d_accesses++;
    if (CacheArray::Line *line = l1d.lookup(paddr)) {
        out.l1_hit = true;
        out.latency = l1d.latency();
        // A hit on a line whose fill is still in flight waits for it.
        GuestPhys line_addr = l1d.lineAddr(paddr);
        for (const Mshr &m : mshrs) {
            if (m.line == line_addr && m.ready > now)
                out.latency = std::max(out.latency, m.ready - now);
        }
        if (is_write) {
            if (coherence && line->state == LineState::Shared) {
                CoherenceResult coh =
                    coherence->onUpgrade(core_id, l1d.lineAddr(paddr));
                out.latency += cycles((U64)coh.extra_latency);
            }
            line->state = LineState::Modified;
            if (CacheArray::Line *l2line = l2.lookup(paddr))
                l2line->state = LineState::Modified;
        }
        return out;
    }

    st_d_misses++;
    GuestPhys line_addr = l1d.lineAddr(paddr);

    // MSHR check: merge with an outstanding miss to the same line, or
    // fail the access if all miss buffers are busy.
    int active = 0;
    for (const Mshr &m : mshrs) {
        if (m.ready > now) {
            active++;
            if (m.line == line_addr) {
                out.latency = m.ready - now;
                return out;
            }
        }
    }
    if (active >= l1d.mshrCount()) {
        st_mshr_full++;
        out.mshr_full = true;
        out.latency = cycles(1);
        return out;
    }

    out.latency = l1d.latency() + missPath(paddr, is_write, false, now);
    mshrs.push_back({line_addr, now + out.latency});
    // Garbage-collect completed entries opportunistically.
    if (mshrs.size() > 4 * (size_t)l1d.mshrCount()) {
        std::erase_if(mshrs, [&](const Mshr &m) { return m.ready <= now; });
    }

    // K8-style next-line hardware prefetch (reference machine only).
    if (cfg.hw_prefetch && !is_write)
        issuePrefetch(line_addr + (U64)l1d.lineBytes(), now);
    return out;
}

void
MemoryHierarchy::issuePrefetch(GuestPhys next_line, SimCycle now)
{
    // K8's hardware prefetcher streams into the L2: demand accesses
    // still record an L1 miss but fill from the fast L2 instead of
    // paying a memory access. The fill itself still occupies the
    // backend (a banked model sees it as a row-hit bulk access that
    // pipelines behind the demand miss that triggered it).
    if (!l2.enabled() || l2.lookup(next_line, false))
        return;
    st_prefetches++;
    backend->request(next_line, false, now);
    fillL2(next_line, LineState::Exclusive, now)->prefetched = true;
}

MemResult
MemoryHierarchy::fetchAccess(GuestPhys paddr, SimCycle now)
{
    MemResult out;
    st_i_accesses++;
    if (l1i.lookup(paddr)) {
        out.l1_hit = true;
        out.latency = l1i.latency();
        return out;
    }
    st_i_misses++;
    out.latency = l1i.latency() + missPath(paddr, false, true, now);
    // Sequential code prefetch: real front ends (including the K8's)
    // stream the next line. The bulk fill goes through the backend —
    // issued right behind the demand miss, so a banked model sees
    // consecutive lines of straight-line code pipeline in the open
    // row instead of each paying a full random-access latency.
    GuestPhys next = l1i.lineAddr(paddr) + (U64)l1i.lineBytes();
    if (!l1i.lookup(next, false)) {
        bool from_memory = !(l2.enabled() && l2.lookup(next, false));
        if (from_memory)
            backend->request(next, false, now);
        if (l2.enabled() && from_memory)
            fillL2(next, LineState::Exclusive, now);
        l1i.insert(next, LineState::Exclusive);
    }
    return out;
}

CycleDelta
MemoryHierarchy::walkTiming(Pfn /*cr3*/, GuestVirt va, PageWalk &walk,
                            bool permitted, bool is_write, SimCycle now)
{
    // The walk engine injects one dependent load per level; the PDE
    // cache (when configured) jumps straight to the leaf table.
    int first_level = 0;
    if (pde_enabled) {
        if (pde_cache.lookup(va) != GuestPhys(0)) {
            first_level = 3;
        } else if (walk.levels == 4) {
            GuestPhys leaf_table = walk.pte_addr[3].pageBase();
            pde_cache.insert(va, leaf_table);
        }
    }
    CycleDelta latency;
    for (int level = first_level; level < walk.levels; level++) {
        st_walk_loads++;
        MemResult r =
            dataAccess(walk.pte_addr[level], false, now + latency, true);
        latency += r.latency;
    }
    if (permitted && aspace->setAccessedDirty(walk, is_write)) {
        // Microcode performs a locked RMW on the changed PTE.
        MemResult r =
            dataAccess(walk.pte_addr[3], true, now + latency, true);
        latency += r.latency;
    }
    return latency;
}

TranslateResult
MemoryHierarchy::translateCommon(Pfn cr3, GuestVirt va, MemAccess kind,
                                 bool user_mode, SimCycle now, Tlb &tlb,
                                 Counter &hits, Counter &misses)
{
    TranslateResult out;
    Vpn vpn = va.vpn();
    bool is_write = (kind == MemAccess::Write);

    if (const TlbEntry *e = tlb.lookup(vpn)) {
        bool needs_dirty_walk = is_write && !e->dirty;
        if (!needs_dirty_walk) {
            hits++;
            out.tlb_hit = true;
            // Permission check straight from the cached entry.
            out.fault = checkPageAccess(true, e->writable, e->user,
                                        e->noexec, kind, user_mode);
            if (out.fault == GuestFault::None)
                out.paddr = e->mfn.pageBase().withOffset(va.pageOffset());
            return out;
        }
        // First store to a clean page: hardware re-walks to set D.
        tlb.flushVpn(vpn);
    }

    // L2 TLB (real K8 organization; absent from the PTLsim model).
    // Note: an L1-TLB miss that hits the L2 TLB is *not* counted in
    // `misses` — that counter mirrors the K8 perf event (translations
    // requiring a page walk), which is what Table 1 reports.
    if (tlb2_enabled && kind != MemAccess::Execute) {
        if (const TlbEntry *e2 = tlb2.lookup(vpn)) {
            bool dirty_ok = !is_write || e2->dirty;
            if (dirty_ok) {
                st_dtlb_l2_hits++;
                out.tlb2_hit = true;
                out.latency = cycles(2);
                out.fault = checkPageAccess(true, e2->writable, e2->user,
                                            e2->noexec, kind, user_mode);
                if (out.fault != GuestFault::None)
                    return out;
                tlb.insert(*e2);
                out.paddr = e2->mfn.pageBase().withOffset(va.pageOffset());
                return out;
            }
            tlb2.flushVpn(vpn);
        }
    }

    // Hardware page walk.
    misses++;
    st_walks++;
    // A/D are set only once the walk passes its permission check, as
    // guestTranslate does: a store that faults on a read-only page
    // leaves the PTE clean and pays no locked RMW.
    PageWalk walk = aspace->walk(cr3, va);
    out.fault = checkWalkAccess(walk, kind, user_mode);
    out.latency += walkTiming(cr3, va, walk,
                              out.fault == GuestFault::None, is_write, now);
    if (out.fault != GuestFault::None)
        return out;

    TlbEntry e;
    e.vpn = vpn;
    e.mfn = walk.mfn;
    e.writable = walk.writable;
    e.user = walk.user;
    e.noexec = walk.noexec;
    // The TLB caches the D bit: pages already dirtied need no re-walk
    // on a later store through a read-inserted entry.
    e.dirty = is_write || walk.dirty;
    tlb.insert(e);
    if (tlb2_enabled && kind != MemAccess::Execute)
        tlb2.insert(e);
    out.paddr = walk.paddr(va);
    return out;
}

TranslateResult
MemoryHierarchy::translateData(Pfn cr3, GuestVirt va, bool is_write,
                               bool user_mode, SimCycle now)
{
    st_dtlb_accesses++;
    return translateCommon(cr3, va,
                           is_write ? MemAccess::Write : MemAccess::Read,
                           user_mode, now, dtlb, st_dtlb_hits,
                           st_dtlb_misses);
}

TranslateResult
MemoryHierarchy::translateFetch(Pfn cr3, GuestVirt va, bool user_mode,
                                SimCycle now)
{
    st_itlb_accesses++;
    return translateCommon(cr3, va, MemAccess::Execute, user_mode, now,
                           itlb, st_itlb_hits, st_itlb_misses);
}

void
MemoryHierarchy::flushTlbs()
{
    dtlb.flushAll();
    itlb.flushAll();
    if (tlb2_enabled)
        tlb2.flushAll();
    if (pde_enabled)
        pde_cache.flushAll();
}

void
MemoryHierarchy::flushCaches()
{
    l1i.invalidateAll();
    l1d.invalidateAll();
    l2.invalidateAll();
    l3.invalidateAll();
    mshrs.clear();
}

void
MemoryHierarchy::invalidateLine(GuestPhys line_addr)
{
    l1d.invalidate(line_addr);
    l1i.invalidate(line_addr);
    l2.invalidate(line_addr);
    l3.invalidate(line_addr);
    // Pending fills of an invalidated line are dead; drop them so a
    // later miss goes back through the coherence fabric.
    std::erase_if(mshrs,
                  [&](const Mshr &m) { return m.line == line_addr; });
}

void
MemoryHierarchy::downgradeLine(GuestPhys line_addr)
{
    for (CacheArray *arr : {&l1d, &l2, &l3}) {
        if (!arr->enabled())
            continue;
        if (CacheArray::Line *line = arr->lookup(line_addr, false)) {
            if (line->state != LineState::Invalid)
                line->state = LineState::Shared;
        }
    }
}

}  // namespace ptl
