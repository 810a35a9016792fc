/**
 * @file
 * The functional-path translation cache (a software TLB).
 *
 * PTLsim's simulation speed (Section 5) rests on simulator-internal
 * caches that are transparent to the modeled microarchitecture: the
 * basic block cache avoids re-decoding x86 instructions, and the
 * functional memory path must avoid re-walking the 4-level page tables
 * for every guest byte it touches. This cache memoizes completed walks
 * for guestTranslate(): a direct-mapped VPN-indexed array of entries
 * tagged with (vpn, cr3) carrying the leaf frame, the effective
 * permission bits, and whether the leaf Dirty bit is known set.
 *
 * It is distinct from the *modeled* TLBs in src/mem/tlb.h: those have
 * K8 geometry, cost cycles, and appear in Table 1; this cache has no
 * timing effect whatsoever — it only makes the functional simulator
 * faster, exactly like gem5's cached translations in its atomic CPU.
 *
 * Invalidation contract (see DESIGN.md "Simulator-internal caches"):
 * the epoch counter is bumped (an O(1) whole-cache flush) whenever
 * page-table state may have changed — AddressSpace::map/mapRange/
 * unmap/createRoot/cloneRoot, a guest store landing on any frame a
 * cached walk traversed (snooped in the guest-write paths the same way
 * notifyCodeWrite snoops self-modifying code), guest CR3 reloads
 * (HC_new_baseptr), and checkpoint restore. A/D semantics are
 * preserved by construction: entries are inserted only after the
 * walker set the Accessed bits, and a write through an entry whose
 * Dirty bit is not known set is treated as a miss so the uncached
 * walker runs and sets D exactly as hardware microcode would.
 */

#ifndef PTLSIM_MEM_TRANSCACHE_H_
#define PTLSIM_MEM_TRANSCACHE_H_

#include "mem/physmem.h"
#include "stats/stats.h"

namespace ptl {

struct PageWalk;

class TranslationCache
{
  public:
    /** Direct-mapped slot count (power of two). */
    static constexpr size_t ENTRIES = 4096;

    struct Entry
    {
        Vpn vpn;
        Pfn cr3;
        Pfn mfn;
        U64 epoch = 0;           ///< valid iff epoch == cache epoch
        bool writable = false;
        bool user = false;
        bool noexec = false;
        bool dirty = false;      ///< leaf D bit known set
    };

    /**
     * Tag-match probe; returns nullptr on a tag or epoch mismatch.
     * Does not touch the hit/miss counters: the caller decides whether
     * a match is usable (a write through a clean entry is a miss).
     */
    Entry *
    probe(Pfn cr3, Vpn vpn)
    {
        Entry &e = slots[vpn.raw() & (ENTRIES - 1)];
        if (e.epoch == epoch && e.vpn == vpn && e.cr3 == cr3)
            return &e;
        return nullptr;
    }

    /** Record a completed, access-checked walk (A/D bits already set). */
    void insert(Pfn cr3, Vpn vpn, const PageWalk &walk, bool wrote);

    /** Drop every entry (O(1) epoch bump). */
    void
    flushAll()
    {
        epoch++;
        n_flushes++;
        if (c_flushes)
            (*c_flushes)++;
    }

    void
    countHit()
    {
        n_hits++;
        if (c_hits)
            (*c_hits)++;
    }

    void
    countMiss()
    {
        n_misses++;
        if (c_misses)
            (*c_misses)++;
    }

    void
    countShadowCheck()
    {
        if (c_shadow)
            (*c_shadow)++;
    }

    /** Mirror the counters into a stats tree (transcache/...). */
    void attachStats(StatsTree &stats);

    U64 hits() const { return n_hits; }
    U64 misses() const { return n_misses; }
    U64 flushes() const { return n_flushes; }

    /** Shadow mode: re-walk on every hit and compare. */
    bool shadowEnabled() const { return shadow; }
    void setShadowEnabled(bool on) { shadow = on; }

  private:
    std::vector<Entry> slots{ENTRIES};
    U64 epoch = 1;               ///< entries start invalid (epoch 0)
    bool shadow = true;

    U64 n_hits = 0;
    U64 n_misses = 0;
    U64 n_flushes = 0;
    Counter *c_hits = nullptr;
    Counter *c_misses = nullptr;
    Counter *c_flushes = nullptr;
    Counter *c_shadow = nullptr;
};

class AddressSpace;
enum class MemAccess : U8;
enum class GuestFault : U8;

/**
 * Shadow mode for this cache: on every cached hit,
 * guestTranslate() re-runs the uncached 4-level walk and panics
 * unless the cached outcome — fault kind, machine-physical address,
 * and the claimed leaf Dirty state — is byte-identical to what the
 * walker produces. Declared here (the layer that owns the cache) so
 * the functional path never depends on src/verify; the checking
 * implementation lives in verify/invariant.cc. Runtime-gated by
 * setShadowEnabled() (default on; machines enable it only when
 * verification is requested).
 */
void verifyCachedTranslation(const AddressSpace &aspace, Pfn cr3,
                             GuestVirt va, MemAccess kind, bool user_mode,
                             GuestFault cached_fault,
                             GuestPhys cached_paddr, bool entry_dirty);

}  // namespace ptl

#endif  // PTLSIM_MEM_TRANSCACHE_H_
