/**
 * Tests for the per-core memory hierarchy: cache timing, MSHRs, bank
 * conflicts, TLB + hardware page-walk timing, the K8 reference machine's
 * L2 TLB / PDE cache / prefetcher, and MOESI vs. instant coherence.
 */

#include <gtest/gtest.h>

#include <memory>

#include "lib/rng.h"
#include "mem/hierarchy.h"

namespace ptl {
namespace {

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : cfg(SimConfig::preset("k8")), mem(16 << 20, 5, true),
          aspace(mem)
    {
        cfg.guest_mem_bytes = 16 << 20;
        hier = std::make_unique<MemoryHierarchy>(cfg, aspace, stats, "c0/");
        cr3 = aspace.createRoot();
        aspace.mapRange(cr3, GuestVirt(VA_BASE), 1 << 20, Pte::RW | Pte::US);
    }

    static constexpr U64 VA_BASE = 0x400000;

    SimConfig cfg;
    PhysMem mem;
    AddressSpace aspace;
    StatsTree stats;
    std::unique_ptr<MemoryHierarchy> hier;
    Pfn cr3;
};

TEST_F(HierarchyTest, ColdMissThenHit)
{
    MemResult miss = hier->dataAccess(GuestPhys(0x10000), false, SimCycle(100));
    EXPECT_FALSE(miss.l1_hit);
    // L1 latency + L2 latency + memory latency.
    EXPECT_EQ(miss.latency, cycles((U64)(cfg.l1d.latency + cfg.l2.latency
                                + cfg.mem_latency)));
    MemResult hit = hier->dataAccess(GuestPhys(0x10000), false, SimCycle(400));
    EXPECT_TRUE(hit.l1_hit);
    EXPECT_EQ(hit.latency, cycles((U64)cfg.l1d.latency));
    EXPECT_EQ(stats.get("c0/dcache/accesses"), 2ULL);
    EXPECT_EQ(stats.get("c0/dcache/misses"), 1ULL);
    EXPECT_EQ(stats.get("c0/mem/accesses"), 1ULL);
}

TEST_F(HierarchyTest, L2HitAfterL1Eviction)
{
    // Fill one L1 set past its associativity; L2 (16-way) keeps all.
    // L1: 64KB 2-way, 512 sets -> same-set stride = 512*64 = 32KB.
    U64 base = 0x000000;
    for (int i = 0; i < 3; i++)
        hier->dataAccess(GuestPhys(base + (U64)i * (512 * 64)), false, SimCycle(10 * i));
    // First line was evicted from L1 but still sits in L2.
    MemResult r = hier->dataAccess(GuestPhys(base), false, SimCycle(1000));
    EXPECT_FALSE(r.l1_hit);
    EXPECT_EQ(r.latency, cycles((U64)(cfg.l1d.latency + cfg.l2.latency)));
    EXPECT_EQ(stats.get("c0/mem/accesses"), 3ULL);
}

TEST_F(HierarchyTest, MshrMergesSameLine)
{
    MemResult first = hier->dataAccess(GuestPhys(0x20000), false, SimCycle(50));
    // Another access to the same line while the miss is in flight
    // merges into the MSHR instead of issuing a second memory access.
    MemResult second = hier->dataAccess(GuestPhys(0x20008), false, SimCycle(52));
    EXPECT_EQ(second.latency, first.latency - cycles(2));
    EXPECT_EQ(stats.get("c0/mem/accesses"), 1ULL);
}

TEST_F(HierarchyTest, MshrFullForcesReplay)
{
    // K8 preset has 8 MSHRs; issue 8 distinct-line misses in one cycle
    // (addresses offset so each lands in a different L1D bank).
    for (int i = 0; i < 8; i++) {
        MemResult r =
            hier->dataAccess(GuestPhys(0x40000 + (U64)i * 64 + (U64)i * 8),
                             false, SimCycle(7));
        EXPECT_FALSE(r.mshr_full) << i;
    }
    MemResult r9 = hier->dataAccess(GuestPhys(0x80000), false, SimCycle(8));
    EXPECT_TRUE(r9.mshr_full);
    EXPECT_EQ(stats.get("c0/dcache/mshr_full"), 1ULL);
    // After the misses drain, new misses are accepted again.
    MemResult later = hier->dataAccess(GuestPhys(0x80000), false, SimCycle(10000));
    EXPECT_FALSE(later.mshr_full);
}

TEST_F(HierarchyTest, BankConflictSameCycle)
{
    // Warm two lines so both accesses would hit.
    hier->dataAccess(GuestPhys(0x1000), false, SimCycle(1));
    hier->dataAccess(GuestPhys(0x2000), false, SimCycle(2));
    // Same cycle, same bank (offset 0x8 within line -> bank 1 for both).
    MemResult a = hier->dataAccess(GuestPhys(0x1008), false, SimCycle(500));
    MemResult b = hier->dataAccess(GuestPhys(0x2008), false, SimCycle(500));
    EXPECT_FALSE(a.bank_conflict);
    EXPECT_TRUE(b.bank_conflict);
    EXPECT_EQ(stats.get("c0/dcache/bank_conflicts"), 1ULL);
    // Different banks in the same cycle: no conflict.
    MemResult c = hier->dataAccess(GuestPhys(0x2010), false, SimCycle(500));
    EXPECT_FALSE(c.bank_conflict);
    // Next cycle the bank frees up.
    MemResult d = hier->dataAccess(GuestPhys(0x2008), false, SimCycle(501));
    EXPECT_FALSE(d.bank_conflict);
}

TEST_F(HierarchyTest, TranslateHitAfterWalk)
{
    TranslateResult t1 = hier->translateData(cr3, GuestVirt(VA_BASE + 0x123), false,
                                             true, SimCycle(10));
    EXPECT_FALSE(t1.tlb_hit);
    EXPECT_EQ(t1.fault, GuestFault::None);
    EXPECT_GT(t1.latency, cycles(0));
    EXPECT_EQ(stats.get("c0/walker/walks"), 1ULL);
    EXPECT_EQ(stats.get("c0/walker/loads"), 4ULL);
    // The machine-physical page comes from the page tables.
    PageWalk w = aspace.walk(cr3, GuestVirt(VA_BASE));
    EXPECT_EQ(t1.paddr.raw(), (w.mfn.raw() << PAGE_SHIFT) | 0x123);

    TranslateResult t2 = hier->translateData(cr3, GuestVirt(VA_BASE + 0x456), false,
                                             true, SimCycle(500));
    EXPECT_TRUE(t2.tlb_hit);
    EXPECT_EQ(t2.latency, cycles(0));
}

TEST_F(HierarchyTest, StoreToCleanPageRewalksForDirtyBit)
{
    // Load first: TLB entry installed with dirty=false.
    hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(10));
    EXPECT_EQ(stats.get("c0/walker/walks"), 1ULL);
    // First store: must re-walk to set the D bit.
    TranslateResult w = hier->translateData(cr3, GuestVirt(VA_BASE), true, true, SimCycle(20));
    EXPECT_EQ(w.fault, GuestFault::None);
    EXPECT_EQ(stats.get("c0/walker/walks"), 2ULL);
    // D bit now set in the leaf PTE.
    PageWalk pw = aspace.walk(cr3, GuestVirt(VA_BASE));
    EXPECT_TRUE(mem.read(pw.pte_addr[3], 8) & Pte::D);
    // Subsequent stores hit.
    TranslateResult w2 = hier->translateData(cr3, GuestVirt(VA_BASE), true, true, SimCycle(30));
    EXPECT_TRUE(w2.tlb_hit);
    EXPECT_EQ(stats.get("c0/walker/walks"), 2ULL);
}

TEST_F(HierarchyTest, TranslationFaults)
{
    TranslateResult unmapped =
        hier->translateData(cr3, GuestVirt(0x9000000), false, true, SimCycle(10));
    EXPECT_EQ(unmapped.fault, GuestFault::PageFaultRead);

    // Kernel-only page: user access faults.
    aspace.map(cr3, GuestVirt(0xA00000), mem.allocFrame(), Pte::RW);
    TranslateResult kpage =
        hier->translateData(cr3, GuestVirt(0xA00000), false, true, SimCycle(20));
    EXPECT_EQ(kpage.fault, GuestFault::PageFaultRead);
    TranslateResult kopage =
        hier->translateData(cr3, GuestVirt(0xA00000), false, false, SimCycle(30));
    EXPECT_EQ(kopage.fault, GuestFault::None);

    // NX page: fetch faults, read succeeds.
    aspace.map(cr3, GuestVirt(0xB00000), mem.allocFrame(), Pte::RW | Pte::US | Pte::NX);
    EXPECT_EQ(hier->translateFetch(cr3, GuestVirt(0xB00000), true, SimCycle(40)).fault,
              GuestFault::PageFaultFetch);
    EXPECT_EQ(hier->translateData(cr3, GuestVirt(0xB00000), false, true, SimCycle(50)).fault,
              GuestFault::None);
}

TEST_F(HierarchyTest, CapacityMissesEvictLruTlb)
{
    // 32-entry DTLB: touching 33 pages evicts the first.
    for (int i = 0; i < 33; i++)
        hier->translateData(cr3, GuestVirt(VA_BASE + (U64)i * PAGE_SIZE), false, true,
                            SimCycle(10 * i));
    U64 walks_before = stats.get("c0/walker/walks");
    hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(10000));
    EXPECT_EQ(stats.get("c0/walker/walks"), walks_before + 1);
}

TEST_F(HierarchyTest, FlushTlbsForcesRewalk)
{
    hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(10));
    hier->flushTlbs();
    TranslateResult t = hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(20));
    EXPECT_FALSE(t.tlb_hit);
    EXPECT_EQ(stats.get("c0/walker/walks"), 2ULL);
}

TEST_F(HierarchyTest, WalkLoadsHitInDataCache)
{
    hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(10));
    U64 misses_first = stats.get("c0/dcache/misses");
    EXPECT_GT(misses_first, 0ULL);  // cold page-table lines missed
    hier->flushTlbs();
    // Re-walk after the fills land: PTE lines are cached, walk is cheap.
    TranslateResult t = hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(2000));
    EXPECT_EQ(stats.get("c0/dcache/misses"), misses_first);
    EXPECT_LE(t.latency, cycles((U64)(4 * cfg.l1d.latency)));
}

TEST_F(HierarchyTest, DirtyEvictionWritesBack)
{
    // Dirty a line, then stream enough lines through its L2 set to
    // evict it: the victim must count a writeback + memory access.
    hier->dataAccess(GuestPhys(0x0), true, SimCycle(10));
    U64 mem_before = stats.get("c0/mem/accesses");
    // L2: 1MB 16-way, 1024 sets -> same-set stride = 1024*64 = 64KB.
    for (int i = 1; i <= 17; i++)
        hier->dataAccess(GuestPhys((U64)i * 64 * 1024), false, SimCycle(100 * i));
    EXPECT_GT(stats.get("c0/mem/writebacks"), 0ULL);
    EXPECT_GT(stats.get("c0/mem/accesses"),
              mem_before + 16ULL);  // 17 fills + >=1 writeback
}

TEST_F(HierarchyTest, PrefetchEvictingDirtyLineWritesBack)
{
    // Every L2 fill retires its victim the same way: a stream prefetch
    // that evicts a dirty line must write it back like a demand fill.
    cfg.hw_prefetch = true;
    hier = std::make_unique<MemoryHierarchy>(cfg, aspace, stats, "c1/");
    // L2 set 1 (stride 64KB): a dirty line first, so it is the LRU
    // victim once 15 clean demand lines fill the rest of the set.
    const U64 set_stride = 64 * 1024;
    hier->dataAccess(GuestPhys(64), true, SimCycle(10));
    for (U64 i = 1; i < 16; i++)
        hier->dataAccess(GuestPhys(64 + i * set_stride), false,
                         SimCycle(1000 * i));
    EXPECT_EQ(stats.get("c1/mem/writebacks"), 0ULL);
    U64 mem_before = stats.get("c1/mem/accesses");
    // A demand miss in set 0 prefetches the next line, into set 1.
    hier->dataAccess(GuestPhys(16 * set_stride), false, SimCycle(20000));
    EXPECT_EQ(stats.get("c1/dcache/prefetches"), 16ULL);
    EXPECT_EQ(stats.get("c1/mem/writebacks"), 1ULL);
    EXPECT_EQ(stats.get("c1/mem/accesses"),
              mem_before + 2ULL);  // the demand fill + the writeback
}

TEST_F(HierarchyTest, TlbCachesDirtyBitFromPte)
{
    // Store once (sets PTE.D). After a full TLB flush, a read
    // re-inserts the entry; a following store must NOT re-walk,
    // because the walk captured the already-set D bit.
    hier->translateData(cr3, GuestVirt(VA_BASE), true, true, SimCycle(10));
    EXPECT_EQ(stats.get("c0/walker/walks"), 1ULL);
    hier->flushTlbs();
    hier->translateData(cr3, GuestVirt(VA_BASE), false, true, SimCycle(20));  // read: walk 2
    EXPECT_EQ(stats.get("c0/walker/walks"), 2ULL);
    TranslateResult w = hier->translateData(cr3, GuestVirt(VA_BASE), true, true, SimCycle(30));
    EXPECT_TRUE(w.tlb_hit);
    EXPECT_EQ(stats.get("c0/walker/walks"), 2ULL);  // no dirty re-walk
}

TEST(K8NativeReference, L2TlbAbsorbsCapacityMisses)
{
    SimConfig cfg = SimConfig::preset("k8-native");
    PhysMem mem(32 << 20, 5, true);
    AddressSpace aspace(mem);
    StatsTree stats;
    MemoryHierarchy hier(cfg, aspace, stats, "c0/");
    Pfn cr3 = aspace.createRoot();
    aspace.mapRange(cr3, GuestVirt(0x400000), 4 << 20, Pte::RW | Pte::US);

    // Touch 256 pages twice: far beyond the 32-entry L1 TLB but well
    // within the 1024-entry L2 TLB, so round two never walks.
    for (int round = 0; round < 2; round++) {
        for (int i = 0; i < 256; i++) {
            hier.translateData(cr3, GuestVirt(0x400000 + (U64)i * PAGE_SIZE), false,
                               true, SimCycle(1000 * round + i));
        }
    }
    U64 walks = stats.get("c0/walker/walks");
    EXPECT_EQ(walks, 256ULL);
    EXPECT_GT(stats.get("c0/dtlb/l2_hits"), 200ULL);
}

TEST(K8NativeReference, PrefetcherCutsSequentialMemoryTraffic)
{
    // The K8-style prefetcher streams into the L2: sequential demand
    // misses still count at L1 but stop paying DRAM accesses.
    StatsTree s1, s2;
    PhysMem mem(16 << 20, 5, true);
    AddressSpace aspace(mem);
    SimConfig base = SimConfig::preset("k8");
    SimConfig pf = SimConfig::preset("k8-native");
    MemoryHierarchy plain(base, aspace, s1, "c0/");
    MemoryHierarchy fetcher(pf, aspace, s2, "c0/");
    for (U64 i = 0; i < 512; i++) {
        plain.dataAccess(GuestPhys(i * 64), false, SimCycle(i * 200));
        fetcher.dataAccess(GuestPhys(i * 64), false, SimCycle(i * 200));
    }
    EXPECT_EQ(s1.get("c0/mem/accesses"), 512ULL);
    EXPECT_LT(s2.get("c0/mem/accesses"), 20ULL);
    EXPECT_GT(s2.get("c0/dcache/prefetches"), 400ULL);
}

class CoherenceTest : public ::testing::Test
{
  protected:
    CoherenceTest(CoherenceKind kind = CoherenceKind::Moesi)
        : cfg(SimConfig::preset("k8")), mem(16 << 20, 5, true),
          aspace(mem)
    {
        cfg.coherence = kind;
        ctrl = std::make_unique<CoherenceController>(
            kind, cfg.interconnect_latency, stats);
        for (int i = 0; i < 2; i++) {
            cores.push_back(std::make_unique<MemoryHierarchy>(
                cfg, aspace, stats,
                std::string("c").append(std::to_string(i)).append("/"),
                ctrl.get()));
        }
    }

    SimConfig cfg;
    PhysMem mem;
    AddressSpace aspace;
    StatsTree stats;
    std::unique_ptr<CoherenceController> ctrl;
    std::vector<std::unique_ptr<MemoryHierarchy>> cores;
};

TEST_F(CoherenceTest, ReadSharingAndWriteInvalidation)
{
    // Core 0 reads: Exclusive.
    cores[0]->dataAccess(GuestPhys(0x1000), false, SimCycle(10));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x1000)), LineState::Exclusive);
    // Core 1 reads: both Shared (0 supplied it).
    MemResult r = cores[1]->dataAccess(GuestPhys(0x1000), false, SimCycle(20));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x1000)), LineState::Shared);
    EXPECT_EQ(ctrl->directoryState(1, GuestPhys(0x1000)), LineState::Shared);
    EXPECT_GT(r.latency, cycles(0));
    // Core 0 writes: upgrade invalidates core 1.
    cores[0]->dataAccess(GuestPhys(0x1000), true, SimCycle(30));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x1000)), LineState::Modified);
    EXPECT_EQ(ctrl->directoryState(1, GuestPhys(0x1000)), LineState::Invalid);
    // Core 1's next read sees the dirty supplier move to Owned.
    cores[1]->dataAccess(GuestPhys(0x1000), false, SimCycle(40));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x1000)), LineState::Owned);
    EXPECT_EQ(ctrl->directoryState(1, GuestPhys(0x1000)), LineState::Shared);
    ctrl->checkAllInvariants();
    EXPECT_GT(stats.get("coherence/invalidations"), 0ULL);
}

TEST_F(CoherenceTest, WriteMissStealsModifiedLine)
{
    cores[0]->dataAccess(GuestPhys(0x2000), true, SimCycle(10));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x2000)), LineState::Modified);
    cores[1]->dataAccess(GuestPhys(0x2000), true, SimCycle(20));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x2000)), LineState::Invalid);
    EXPECT_EQ(ctrl->directoryState(1, GuestPhys(0x2000)), LineState::Modified);
    // Core 0's cached copy is gone: next read is a miss.
    MemResult r = cores[0]->dataAccess(GuestPhys(0x2000), false, SimCycle(30));
    EXPECT_FALSE(r.l1_hit);
    ctrl->checkAllInvariants();
}

TEST_F(CoherenceTest, RandomizedTrafficKeepsInvariants)
{
    Rng rng(17);
    for (int i = 0; i < 5000; i++) {
        int core = (int)rng.below(2);
        U64 addr = (rng.below(64)) * 64;
        bool write = rng.chance(1, 3);
        cores[core]->dataAccess(GuestPhys(addr), write, SimCycle(100 + i));
    }
    ctrl->checkAllInvariants();
}

class InstantCoherenceTest : public CoherenceTest
{
  protected:
    InstantCoherenceTest() : CoherenceTest(CoherenceKind::InstantVisibility) {}
};

TEST_F(InstantCoherenceTest, ZeroLatencyLineMovement)
{
    cores[0]->dataAccess(GuestPhys(0x1000), true, SimCycle(10));
    // Instant model: peer supplies the line with no interconnect delay;
    // the requestor pays only its own L1+L2 fill path.
    MemResult r = cores[1]->dataAccess(GuestPhys(0x1000), false, SimCycle(20));
    EXPECT_EQ(r.latency, cycles((U64)(cfg.l1d.latency + cfg.l2.latency)));
    EXPECT_EQ(ctrl->directoryState(0, GuestPhys(0x1000)), LineState::Owned);
    ctrl->checkAllInvariants();
}

}  // namespace
}  // namespace ptl
