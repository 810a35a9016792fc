/**
 * @file
 * Translation lookaside buffers.
 *
 * PTLsim's model carries a single-level 32-entry DTLB/ITLB pair; real
 * K8 silicon adds a 1024-entry 4-way L2 TLB and a 24-entry PDE cache
 * that short-circuits most of the 4-level walk. Both organizations are
 * modeled here: the paper's Table 1 DTLB rows (PTLsim ~2.4x the native
 * miss count) are a direct structural consequence of that difference,
 * and the k8-native reference preset enables the extra levels.
 */

#ifndef PTLSIM_MEM_TLB_H_
#define PTLSIM_MEM_TLB_H_

#include <vector>

#include "lib/bitops.h"
#include "mem/pagetable.h"

namespace ptl {

/** A cached translation. */
struct TlbEntry
{
    Vpn vpn;
    Pfn mfn;
    bool writable = false;
    bool user = false;
    bool noexec = false;
    bool dirty = false;   ///< leaf D bit known set (else stores re-walk)
};

/**
 * One set-associative TLB level (entries == ways => fully associative).
 * Validity and recency live in two packed arrays beside the payload, so
 * a lookup scans 8-byte tags and an insert 8-byte stamps rather than
 * whole entries.
 */
class Tlb
{
  public:
    Tlb(int entries, int ways);

    /** Look up a virtual page number; nullptr on miss. Updates LRU. */
    const TlbEntry *lookup(Vpn vpn);

    /** Install a translation (evicts LRU within the set). */
    void insert(const TlbEntry &entry);

    /** Drop every entry (CR3 reload / explicit flush). */
    void flushAll();

    /** Drop one page's translation (invlpg / SMC handling). */
    void flushVpn(Vpn vpn);

  private:
    static constexpr U64 NO_TAG = ~0ULL;  ///< tag of an invalid way

    /** Index of way 0 of `vpn`'s set. */
    size_t
    setBase(Vpn vpn) const
    {
        return (size_t)(vpn.raw() & (U64)(sets - 1)) * ways;
    }

    int sets;
    int ways;
    U64 tick = 0;
    std::vector<U64> tags;          ///< VPN per way; NO_TAG = invalid
    std::vector<U64> stamps;        ///< last-use tick; 0 = invalid
    std::vector<TlbEntry> entries;  ///< sets x ways payload
};

/**
 * Page-directory-entry cache: maps va[47:21] to the machine-physical
 * base of the last-level page table, reducing a 4-load walk to 1 load.
 * Present on real K8 (24 entries); absent from the PTLsim model.
 */
class PdeCache
{
  public:
    explicit PdeCache(int entries = 24) : capacity(entries) {}

    /** Returns the level-3 table base paddr, or 0 on miss. */
    GuestPhys lookup(GuestVirt va);
    void insert(GuestVirt va, GuestPhys table_paddr);
    void flushAll();

  private:
    struct Node { U64 key; GuestPhys table_paddr; U64 lru; };
    static U64 keyOf(GuestVirt va) { return va.raw() >> 21; }

    int capacity;
    U64 tick = 0;
    std::vector<Node> nodes;
};

}  // namespace ptl

#endif  // PTLSIM_MEM_TLB_H_
