/**
 * @file
 * Real 4-level x86-64 page tables.
 *
 * The paper (Section 4.3) stresses that full-system fidelity requires
 * the *actual* page table pages to exist in guest physical memory: the
 * hardware walker's four dependent loads hit or miss in the data cache,
 * page table lines compete with user data for cache capacity, and the
 * microcode must set the Accessed/Dirty tracking bits that x86 kernels
 * expect. This module implements genuine x86-64 PTE encodings stored in
 * PhysMem frames, a builder used by the domain constructor (the role
 * Xen's domain builder plays for paravirtual guests), and a functional
 * walker that reports the machine-physical address of every PTE it
 * touched — which is exactly what the timing-level walk engine needs to
 * inject its dependent loads.
 */

#ifndef PTLSIM_MEM_PAGETABLE_H_
#define PTLSIM_MEM_PAGETABLE_H_

#include "mem/physmem.h"
#include "mem/transcache.h"
#include "uop/uopexec.h"   // GuestFault

namespace ptl {

/** x86-64 page table entry bits. */
struct Pte
{
    static constexpr U64 P = 1ULL << 0;    ///< present
    static constexpr U64 RW = 1ULL << 1;   ///< writable
    static constexpr U64 US = 1ULL << 2;   ///< user accessible
    static constexpr U64 A = 1ULL << 5;    ///< accessed
    static constexpr U64 D = 1ULL << 6;    ///< dirty (leaf only)
    static constexpr U64 NX = 1ULL << 63;  ///< no-execute
    static constexpr U64 ADDR_MASK = 0x000ffffffffff000ULL;
};

/** Kind of memory access, for permission checks. */
enum class MemAccess : U8 { Read, Write, Execute };

/** Result of walking the page table tree for one virtual address. */
struct PageWalk
{
    bool present = false;
    bool writable = false;
    bool user = false;
    bool noexec = false;
    bool dirty = false;      ///< leaf D bit already set
    Pfn mfn;                 ///< leaf machine frame
    GuestPhys pte_addr[4];   ///< machine-physical address of each level's PTE
    U64 pte[4] = {};         ///< PTE value at each touched level, as last
                             ///< read or written (setAccessedDirty)
    int levels = 0;          ///< number of levels actually touched

    /** Machine-physical address for `va` under this translation: the
     *  one legal virt->phys bridge (walked leaf frame + page offset). */
    GuestPhys
    paddr(GuestVirt va) const
    {
        return mfn.pageBase().withOffset(va.pageOffset());
    }
};

/** Permission/fault check for a completed walk. */
GuestFault checkWalkAccess(const PageWalk &walk, MemAccess kind,
                           bool user_mode);

/**
 * The same check over raw permission bits, shared between the walker
 * and the translation cache so cached entries fault byte-identically
 * to an uncached walk.
 */
GuestFault checkPageAccess(bool present, bool writable, bool user,
                           bool noexec, MemAccess kind, bool user_mode);

/**
 * Builder + functional walker over page tables living in PhysMem.
 * The Pfn-typed "cr3" values handled here are root table MFNs,
 * matching how the real CR3 register holds the PML4 base address.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(PhysMem &phys)
        : mem(&phys), pt_frame(phys.frameCount(), false)
    {
    }

    /** Allocate an empty PML4 root; returns its MFN (a CR3 value). */
    Pfn createRoot();

    /**
     * Allocate a new root whose PML4 entries alias `src_cr3`'s. Used to
     * give each guest task its own CR3 (so task switches reload CR3 and
     * flush TLBs, as on real hardware) while sharing one address space.
     */
    Pfn cloneRoot(Pfn src_cr3);

    /**
     * Map one 4 KB page. `flags` is a combination of Pte::RW / Pte::US /
     * Pte::NX; P is implied. Intermediate tables are allocated on demand
     * (always with RW|US so leaf flags govern permissions).
     */
    void map(Pfn cr3, GuestVirt va, Pfn mfn, U64 flags);

    /** Map a contiguous virtual range, allocating fresh frames. */
    void mapRange(Pfn cr3, GuestVirt va, U64 bytes, U64 flags);

    /** Remove a mapping (marks the leaf not-present). */
    void unmap(Pfn cr3, GuestVirt va);

    /** Pure functional walk; does not modify A/D bits. */
    PageWalk walk(Pfn cr3, GuestVirt va) const;

    /**
     * Set the Accessed bit along the walk path and (for writes) the
     * Dirty bit in the leaf — the tracking-bit updates x86 operating
     * systems expect the hardware/microcode to perform transparently.
     * Returns true if any PTE actually changed (i.e. microcode had to
     * do a locked RMW on the page table).
     *
     * Works from the PTE values `walk` carries rather than re-reading
     * them, so call it straight after walk() with nothing writing the
     * page tables in between. Each PTE it writes is stored back into
     * every level of `walk` with the same PTE address, so a table that
     * maps itself and a walk passed in again both stay exact.
     */
    bool setAccessedDirty(PageWalk &walk, bool is_write);

    PhysMem &physMem() { return *mem; }

    // ---- functional-path translation cache (simulator-internal) ----

    TranslationCache &transCache() { return tcache; }
    const TranslationCache &transCache() const { return tcache; }

    /** Drop every cached translation (CR3 reload, checkpoint restore). */
    void flushTranslationCache() { tcache.flushAll(); }

    /** Mirror the transcache counters into `stats` (transcache/...). */
    void attachStats(StatsTree &stats) { tcache.attachStats(stats); }

    /**
     * True if `mfn` holds page-table state some cached translation's
     * walk traversed. Guest-write paths snoop this the same way
     * notifyCodeWrite snoops self-modifying code.
     */
    bool
    isPageTableFrame(Pfn mfn) const
    {
        return mfn.raw() < pt_frame.size() && pt_frame[mfn.raw()];
    }

    /** A guest store just landed on `mfn`: invalidate cached
     *  translations if it backs live page-table state. */
    void
    notifyGuestStore(Pfn mfn)
    {
        if (isPageTableFrame(mfn))
            tcache.flushAll();
    }

    /** Record the table frames a (successful) walk traversed, so
     *  guest stores to them are snooped. Called before caching. */
    void registerWalkFrames(const PageWalk &walk);

  private:
    Pfn allocTable();

    PhysMem *mem;
    TranslationCache tcache;
    std::vector<bool> pt_frame;  ///< per-MFN "backs page tables" bit
};

/** Per-level index of a canonical 48-bit virtual address (0 = PML4). */
inline unsigned
pageTableIndex(GuestVirt va, int level)
{
    return (unsigned)bits(va.raw(), 39 - 9 * level, 9);
}

}  // namespace ptl

#endif  // PTLSIM_MEM_PAGETABLE_H_
