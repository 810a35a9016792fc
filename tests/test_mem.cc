/** Tests for PhysMem, page tables, TLBs and the cache tag arrays. */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "lib/rng.h"
#include "mem/cache.h"
#include "mem/pagetable.h"
#include "mem/physmem.h"
#include "mem/tlb.h"

namespace ptl {
namespace {

TEST(PhysMem, ReadWriteRoundTrip)
{
    PhysMem mem(1 << 20, 1, false);
    mem.write(GuestPhys(0x1234), 0xdeadbeefcafebabeULL, 8);
    EXPECT_EQ(mem.read(GuestPhys(0x1234), 8), 0xdeadbeefcafebabeULL);
    EXPECT_EQ(mem.read(GuestPhys(0x1234), 4), 0xcafebabeULL);
    EXPECT_EQ(mem.read(GuestPhys(0x1234), 1), 0xbeULL);
    mem.write(GuestPhys(0x1238), 0x11, 1);
    EXPECT_EQ(mem.read(GuestPhys(0x1234), 8), 0xdeadbe11cafebabeULL);
}

TEST(PhysMem, CrossFrameAccess)
{
    PhysMem mem(1 << 20, 1, false);
    GuestPhys addr = GuestPhys(PAGE_SIZE - 3);  // spans frames 0 and 1
    mem.write(addr, 0x0102030405060708ULL, 8);
    EXPECT_EQ(mem.read(addr, 8), 0x0102030405060708ULL);
    EXPECT_EQ(mem.read(GuestPhys(PAGE_SIZE), 1), 0x05ULL);
}

TEST(PhysMem, ShuffledAllocatorIsNonContiguousAndComplete)
{
    PhysMem mem(1 << 20, 99, true);
    std::set<U64> seen;
    bool contiguous = true;
    U64 prev = ~0ULL;
    for (U64 i = 0; i < mem.frameCount(); i++) {
        U64 mfn = mem.allocFrame().raw();
        EXPECT_LT(mfn, mem.frameCount());
        EXPECT_TRUE(seen.insert(mfn).second) << "duplicate mfn";
        if (prev != ~0ULL && mfn != prev + 1)
            contiguous = false;
        prev = mfn;
    }
    EXPECT_FALSE(contiguous) << "shuffle produced the identity order";
    EXPECT_EQ(seen.size(), mem.frameCount());
}

TEST(PhysMem, DeterministicShuffle)
{
    PhysMem a(1 << 18, 7, true), b(1 << 18, 7, true);
    for (int i = 0; i < 32; i++)
        EXPECT_EQ(a.allocFrame(), b.allocFrame());
}

TEST(PhysMem, ZeroSizeIsFatal)
{
    EXPECT_DEATH(PhysMem(0), "guest memory of 0 bytes holds no 4096-byte frame");
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest() : mem(8 << 20, 3, true), aspace(mem) {}
    PhysMem mem;
    AddressSpace aspace;
};

TEST_F(PageTableTest, MapAndWalk)
{
    Pfn cr3 = aspace.createRoot();
    Pfn mfn = mem.allocFrame();
    aspace.map(cr3, GuestVirt(0x400000), mfn, Pte::RW | Pte::US);
    PageWalk w = aspace.walk(cr3, GuestVirt(0x400123));
    EXPECT_TRUE(w.present);
    EXPECT_TRUE(w.writable);
    EXPECT_TRUE(w.user);
    EXPECT_EQ(w.mfn, mfn);
    EXPECT_EQ(w.levels, 4);
    EXPECT_EQ(w.paddr(GuestVirt(0x400123)).raw(),
              (mfn.raw() << PAGE_SHIFT) | 0x123);
}

TEST_F(PageTableTest, NotPresentStopsEarly)
{
    Pfn cr3 = aspace.createRoot();
    PageWalk w = aspace.walk(cr3, GuestVirt(0x400000));
    EXPECT_FALSE(w.present);
    EXPECT_EQ(w.levels, 1);  // PML4 entry itself absent
    aspace.map(cr3, GuestVirt(0x400000), mem.allocFrame(), Pte::RW | Pte::US);
    // A nearby page in the same 2MB region: leaf absent, 4 levels read.
    PageWalk w2 = aspace.walk(cr3, GuestVirt(0x401000));
    EXPECT_FALSE(w2.present);
    EXPECT_EQ(w2.levels, 4);
}

TEST_F(PageTableTest, PermissionChecks)
{
    Pfn cr3 = aspace.createRoot();
    aspace.map(cr3, GuestVirt(0x10000), mem.allocFrame(), 0);           // kernel RO
    aspace.map(cr3, GuestVirt(0x20000), mem.allocFrame(), Pte::RW);     // kernel RW
    aspace.map(cr3, GuestVirt(0x30000), mem.allocFrame(),
               Pte::RW | Pte::US | Pte::NX);                 // user data

    PageWalk ro = aspace.walk(cr3, GuestVirt(0x10000));
    EXPECT_EQ(checkWalkAccess(ro, MemAccess::Read, false), GuestFault::None);
    EXPECT_EQ(checkWalkAccess(ro, MemAccess::Write, false),
              GuestFault::PageFaultWrite);
    EXPECT_EQ(checkWalkAccess(ro, MemAccess::Read, true),
              GuestFault::PageFaultRead);

    PageWalk ud = aspace.walk(cr3, GuestVirt(0x30000));
    EXPECT_EQ(checkWalkAccess(ud, MemAccess::Write, true), GuestFault::None);
    EXPECT_EQ(checkWalkAccess(ud, MemAccess::Execute, true),
              GuestFault::PageFaultFetch);
}

TEST_F(PageTableTest, AccessedDirtyBits)
{
    Pfn cr3 = aspace.createRoot();
    aspace.map(cr3, GuestVirt(0x40000), mem.allocFrame(), Pte::RW | Pte::US);
    PageWalk w = aspace.walk(cr3, GuestVirt(0x40000));
    // Fresh mapping: A/D clear; first touch sets A everywhere.
    EXPECT_TRUE(aspace.setAccessedDirty(w, false));
    U64 leaf = mem.read(w.pte_addr[3], 8);
    EXPECT_TRUE(leaf & Pte::A);
    EXPECT_FALSE(leaf & Pte::D);
    // Second read touch: nothing changes.
    EXPECT_FALSE(aspace.setAccessedDirty(w, false));
    // First write: D set.
    EXPECT_TRUE(aspace.setAccessedDirty(w, true));
    leaf = mem.read(w.pte_addr[3], 8);
    EXPECT_TRUE(leaf & Pte::D);
    EXPECT_FALSE(aspace.setAccessedDirty(w, true));
}

/** The A/D update as it was before walks carried their PTEs: every
 *  level re-read from memory. The reference for the snapshot tests. */
bool
rereadingSetAccessedDirty(PhysMem &mem, const PageWalk &walk, bool is_write)
{
    bool changed = false;
    for (int level = 0; level < 4; level++) {
        U64 pte = mem.read(walk.pte_addr[level], 8);
        U64 want = pte | Pte::A;
        if (level == 3 && is_write)
            want |= Pte::D;
        if (want != pte) {
            mem.write(walk.pte_addr[level], want, 8);
            changed = true;
        }
    }
    return changed;
}

TEST_F(PageTableTest, WalkCarriesEveryTouchedPte)
{
    Pfn cr3 = aspace.createRoot();
    aspace.map(cr3, GuestVirt(0x400000), mem.allocFrame(), Pte::RW | Pte::US);
    struct Case { U64 va; int levels; bool present; };
    const Case cases[] = {
        {0x400123, 4, true},          // mapped
        {0x401000, 4, false},         // leaf not present
        {0x40000000, 2, false},       // PDPT entry not present
        {0x8000000000ULL, 1, false},  // PML4 entry not present
    };
    for (const Case &c : cases) {
        PageWalk w = aspace.walk(cr3, GuestVirt(c.va));
        ASSERT_EQ(w.levels, c.levels) << std::hex << c.va;
        EXPECT_EQ(w.present, c.present) << std::hex << c.va;
        for (int l = 0; l < w.levels; l++)
            EXPECT_EQ(w.pte[l], mem.read(w.pte_addr[l], 8))
                << std::hex << c.va << " level " << l;
        EXPECT_EQ((w.pte[w.levels - 1] & Pte::P) != 0, c.present);
    }
}

/**
 * A PML4 entry that maps its own root: for a VA whose four indices all
 * name that entry, every level of the walk reads the same PTE. Setting
 * A (and D) through the walk's snapshot must leave memory and return
 * values exactly as re-reading each level would.
 */
TEST(PageTableSnapshot, SelfMappedRootMatchesRereadingWalk)
{
    constexpr unsigned SELF = 5;
    const GuestVirt va((U64(SELF) << 39) | (U64(SELF) << 30)
                       | (U64(SELF) << 21) | (U64(SELF) << 12));
    const std::vector<std::vector<bool>> sequences = {
        {true, true}, {false, false, true, true}};
    for (const std::vector<bool> &writes : sequences) {
        PhysMem mem_a(1 << 20, 3, true), mem_b(1 << 20, 3, true);
        AddressSpace as_a(mem_a), as_b(mem_b);
        Pfn root = as_a.createRoot();
        ASSERT_EQ(as_b.createRoot(), root);
        U64 self_pte = root.pageBase().raw() | Pte::P | Pte::RW | Pte::US;
        GuestPhys self_addr = root.pageBase().withOffset(SELF * 8);
        mem_a.write(self_addr, self_pte, 8);
        mem_b.write(self_addr, self_pte, 8);

        PageWalk wa = as_a.walk(root, va);
        PageWalk wb = as_b.walk(root, va);
        ASSERT_TRUE(wa.present);
        ASSERT_EQ(wa.mfn, root);
        for (int l = 0; l < 4; l++)
            ASSERT_EQ(wa.pte_addr[l], self_addr);
        for (size_t i = 0; i < writes.size(); i++) {
            EXPECT_EQ(as_a.setAccessedDirty(wa, writes[i]),
                      rereadingSetAccessedDirty(mem_b, wb, writes[i]))
                << "call " << i;
            EXPECT_EQ(std::memcmp(mem_a.frameData(root),
                                  mem_b.frameData(root), PAGE_SIZE), 0)
                << "call " << i;
            for (int l = 0; l < 4; l++)
                EXPECT_EQ(wa.pte[l], mem_a.read(self_addr, 8))
                    << "call " << i << " level " << l;
        }
        EXPECT_EQ(mem_a.read(self_addr, 8), self_pte | Pte::A | Pte::D);
    }
}

TEST_F(PageTableTest, CloneRootSharesLowerLevels)
{
    Pfn cr3a = aspace.createRoot();
    aspace.map(cr3a, GuestVirt(0x400000), mem.allocFrame(), Pte::RW | Pte::US);
    Pfn cr3b = aspace.cloneRoot(cr3a);
    EXPECT_NE(cr3a, cr3b);
    PageWalk wa = aspace.walk(cr3a, GuestVirt(0x400000));
    PageWalk wb = aspace.walk(cr3b, GuestVirt(0x400000));
    EXPECT_TRUE(wb.present);
    EXPECT_EQ(wa.mfn, wb.mfn);
    // Lower-level PTEs are physically shared; only the roots differ.
    EXPECT_EQ(wa.pte_addr[1], wb.pte_addr[1]);
    EXPECT_NE(wa.pte_addr[0], wb.pte_addr[0]);
    // A mapping added through one root is visible through the clone
    // when it lands in a shared lower-level table.
    aspace.map(cr3a, GuestVirt(0x401000), mem.allocFrame(), Pte::RW | Pte::US);
    EXPECT_TRUE(aspace.walk(cr3b, GuestVirt(0x401000)).present);
}

TEST_F(PageTableTest, MapRangeAndUnmap)
{
    Pfn cr3 = aspace.createRoot();
    aspace.mapRange(cr3, GuestVirt(0x100000), 5 * PAGE_SIZE, Pte::RW | Pte::US);
    for (int i = 0; i < 5; i++)
        EXPECT_TRUE(aspace.walk(cr3, GuestVirt(0x100000 + i * PAGE_SIZE)).present);
    aspace.unmap(cr3, GuestVirt(0x102000));
    EXPECT_FALSE(aspace.walk(cr3, GuestVirt(0x102000)).present);
    EXPECT_TRUE(aspace.walk(cr3, GuestVirt(0x103000)).present);
}

TEST(TlbTest, HitMissAndLru)
{
    Tlb tlb(4, 4);  // fully associative, 4 entries
    TlbEntry e;
    e.writable = true;
    for (U64 vpn = 0; vpn < 4; vpn++) {
        e.vpn = Vpn(vpn);
        e.mfn = Pfn(100 + vpn);
        tlb.insert(e);
    }
    ASSERT_NE(tlb.lookup(Vpn(0)), nullptr);
    EXPECT_EQ(tlb.lookup(Vpn(2))->mfn, Pfn(102));
    // Touch 0..2 so 3 becomes LRU; inserting evicts vpn 3.
    tlb.lookup(Vpn(0));
    tlb.lookup(Vpn(1));
    tlb.lookup(Vpn(2));
    e.vpn = Vpn(9);
    e.mfn = Pfn(109);
    tlb.insert(e);
    EXPECT_EQ(tlb.lookup(Vpn(3)), nullptr);
    EXPECT_NE(tlb.lookup(Vpn(9)), nullptr);
}

TEST(TlbTest, FlushSemantics)
{
    Tlb tlb(8, 2);
    TlbEntry e;
    e.vpn = Vpn(5);
    tlb.insert(e);
    tlb.flushVpn(Vpn(5));
    EXPECT_EQ(tlb.lookup(Vpn(5)), nullptr);
    e.vpn = Vpn(6);
    tlb.insert(e);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(Vpn(6)), nullptr);
}

/** The TLB as a full-way scan over {vpn, mfn, valid, lru} entries: the
 *  organisation Tlb had before its tags and stamps were packed. */
class ReferenceTlb
{
  public:
    ReferenceTlb(int entry_count, int way_count)
        : sets(entry_count / way_count), ways(way_count),
          entries((size_t)entry_count)
    {
    }

    std::optional<Pfn>
    lookup(Vpn vpn)
    {
        Entry *base = setOf(vpn);
        for (int w = 0; w < ways; w++) {
            if (base[w].valid && base[w].vpn == vpn) {
                base[w].lru = ++tick;
                return base[w].mfn;
            }
        }
        return std::nullopt;
    }

    /** Returns the VPN of the valid entry it evicted, if any. */
    std::optional<Vpn>
    insert(Vpn vpn, Pfn mfn)
    {
        Entry *base = setOf(vpn);
        int victim = 0;
        for (int w = 0; w < ways; w++) {
            if (!base[w].valid) {
                victim = w;
                break;
            }
            if (base[w].lru < base[victim].lru)
                victim = w;
        }
        std::optional<Vpn> evicted;
        if (base[victim].valid)
            evicted = base[victim].vpn;
        base[victim] = {vpn, mfn, true, ++tick};
        return evicted;
    }

    void
    flushAll()
    {
        for (Entry &e : entries)
            e.valid = false;
    }

    void
    flushVpn(Vpn vpn)
    {
        Entry *base = setOf(vpn);
        for (int w = 0; w < ways; w++) {
            if (base[w].valid && base[w].vpn == vpn)
                base[w].valid = false;
        }
    }

  private:
    struct Entry
    {
        Vpn vpn;
        Pfn mfn;
        bool valid = false;
        U64 lru = 0;
    };

    Entry *
    setOf(Vpn vpn)
    {
        return &entries[(size_t)(vpn.raw() & (U64)(sets - 1)) * ways];
    }

    int sets;
    int ways;
    U64 tick = 0;
    std::vector<Entry> entries;
};

/**
 * A seeded random stream of lookups, inserts (often of a VPN already
 * resident, with a new frame), single-page and full flushes must give
 * the same hits, frames and victims on Tlb as on the full-way scan.
 */
TEST(TlbTest, MatchesFullWayScanOnRandomStreams)
{
    struct Shape { int entries; int ways; };
    for (Shape shape : {Shape{32, 32}, Shape{8, 2}, Shape{1024, 4}}) {
        SCOPED_TRACE(testing::Message()
                     << shape.entries << "x" << shape.ways);
        Tlb tlb(shape.entries, shape.ways);
        ReferenceTlb ref(shape.entries, shape.ways);
        Rng rng(0x71B5EED ^ (U64)shape.entries);
        const U64 vpn_space = 3 * (U64)shape.entries;
        auto compareLookup = [&](Vpn vpn, int op) {
            const TlbEntry *got = tlb.lookup(vpn);
            std::optional<Pfn> want = ref.lookup(vpn);
            ASSERT_EQ(got != nullptr, want.has_value())
                << "op " << op << " vpn " << vpn.raw();
            if (got) {
                ASSERT_EQ(got->mfn, *want) << "op " << op;
                ASSERT_EQ(got->vpn, vpn) << "op " << op;
            }
        };
        for (int op = 0; op < 40'000; op++) {
            Vpn vpn(rng.below(vpn_space));
            U64 pick = rng.below(1000);
            if (pick < 500) {
                compareLookup(vpn, op);
            } else if (pick < 850) {
                TlbEntry e;
                e.vpn = vpn;
                e.mfn = Pfn(rng.below(1 << 20));
                tlb.insert(e);
                std::optional<Vpn> evicted = ref.insert(vpn, e.mfn);
                // The victim must be gone from Tlb too (or, if another
                // way still holds that VPN, hit there on both).
                if (evicted)
                    compareLookup(*evicted, op);
            } else if (pick < 998) {
                tlb.flushVpn(vpn);
                ref.flushVpn(vpn);
            } else {
                tlb.flushAll();
                ref.flushAll();
            }
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(PdeCacheTest, LookupInsertEvict)
{
    PdeCache pde(2);
    EXPECT_EQ(pde.lookup(GuestVirt(0x200000)), GuestPhys(0));
    pde.insert(GuestVirt(0x200000), GuestPhys(0xAAAA000));
    pde.insert(GuestVirt(0x400000), GuestPhys(0xBBBB000));
    EXPECT_EQ(pde.lookup(GuestVirt(0x200123)), GuestPhys(0xAAAA000));  // same 2MB region
    EXPECT_EQ(pde.lookup(GuestVirt(0x400000)), GuestPhys(0xBBBB000));
    pde.insert(GuestVirt(0x600000), GuestPhys(0xCCCC000));                // evicts LRU (0x200000)
    EXPECT_EQ(pde.lookup(GuestVirt(0x200000)), GuestPhys(0));
    EXPECT_EQ(pde.lookup(GuestVirt(0x600000)), GuestPhys(0xCCCC000));
}

TEST(CacheArrayTest, HitMissEvictLru)
{
    CacheParams p{4096, 2, 64, 3, 8, 1};  // 32 sets x 2 ways
    CacheArray c(p);
    EXPECT_EQ(c.lookup(GuestPhys(0x1000)), nullptr);
    c.insert(GuestPhys(0x1000), LineState::Exclusive);
    EXPECT_NE(c.lookup(GuestPhys(0x1000)), nullptr);
    EXPECT_NE(c.lookup(GuestPhys(0x103f)), nullptr);   // same line
    EXPECT_EQ(c.lookup(GuestPhys(0x1040)), nullptr);   // next line
    // Two more lines mapping to set of 0x1000 (stride = sets*64 = 2048).
    c.insert(GuestPhys(0x1000 + 2048), LineState::Exclusive);
    c.lookup(GuestPhys(0x1000));  // make the +2048 line LRU
    CacheArray::Eviction ev;
    c.insert(GuestPhys(0x1000 + 4096), LineState::Exclusive, &ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, GuestPhys(0x1000 + 2048));
    EXPECT_EQ(c.lookup(GuestPhys(0x1000 + 2048)), nullptr);
    EXPECT_NE(c.lookup(GuestPhys(0x1000)), nullptr);
}

TEST(CacheArrayTest, BankMapping64BitInterleave)
{
    CacheParams p{64 << 10, 2, 64, 3, 8, 8};
    CacheArray c(p);
    EXPECT_EQ(c.bankOf(GuestPhys(0x0)), 0);
    EXPECT_EQ(c.bankOf(GuestPhys(0x8)), 1);
    EXPECT_EQ(c.bankOf(GuestPhys(0x38)), 7);
    EXPECT_EQ(c.bankOf(GuestPhys(0x40)), 0);
    EXPECT_EQ(c.bankOf(GuestPhys(0x47)), 0);  // same 8-byte bank word
}

TEST(CacheArrayTest, InvalidateAndStates)
{
    CacheParams p{4096, 2, 64, 3, 8, 1};
    CacheArray c(p);
    c.insert(GuestPhys(0x2000), LineState::Modified);
    EXPECT_TRUE(lineDirty(c.lookup(GuestPhys(0x2000))->state));
    c.invalidate(GuestPhys(0x2000));
    EXPECT_EQ(c.lookup(GuestPhys(0x2000)), nullptr);
    c.insert(GuestPhys(0x3000), LineState::Shared);
    c.invalidateAll();
    EXPECT_EQ(c.lookup(GuestPhys(0x3000)), nullptr);
}

TEST(CacheArrayTest, ForEachLineReconstructsAddresses)
{
    CacheParams p{4096, 2, 64, 3, 8, 1};
    CacheArray c(p);
    c.insert(GuestPhys(0x12340), LineState::Exclusive);
    c.insert(GuestPhys(0x56780), LineState::Modified);
    std::set<U64> addrs;
    c.forEachLine([&](GuestPhys line_addr, const CacheArray::Line &) {
        addrs.insert(line_addr.raw());
    });
    EXPECT_TRUE(addrs.count(0x12340 & ~63ULL));
    EXPECT_TRUE(addrs.count(0x56780 & ~63ULL));
    EXPECT_EQ(addrs.size(), 2u);
}

}  // namespace
}  // namespace ptl
