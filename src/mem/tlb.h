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
    bool valid = false;
    U64 lru = 0;
};

/** One set-associative TLB level (entries == ways => fully associative). */
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
    int sets;
    int ways;
    U64 tick = 0;
    std::vector<TlbEntry> entries;  ///< sets x ways
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
