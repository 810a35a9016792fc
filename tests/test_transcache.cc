/**
 * @file
 * Tests for the functional-path translation cache (src/mem/transcache.h)
 * and the bulk guest-memory helpers built on it: hit/miss/flush
 * accounting, every edge of the invalidation contract (map/unmap, CR3
 * reload, guest stores landing on page-table frames, SMC interaction
 * with the basic block cache), A/D-bit equivalence with the uncached
 * walker, cross-page store atomicity, and guestCopyIn/Out/Fill partial
 * fault semantics.
 */

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#include "guest_harness.h"
#include "sys/machine.h"

namespace ptl {
namespace {

TEST(TransCache, HitMissAndFlushCounting)
{
    GuestRunner r;
    TranslationCache &tc = r.aspace.transCache();
    U64 h0 = tc.hits(), m0 = tc.misses();

    // Cold translate: a miss that fills the cache.
    GuestAccess a = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                   MemAccess::Read);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(tc.misses(), m0 + 1);
    EXPECT_EQ(tc.hits(), h0);

    // Warm translate: a hit returning the identical paddr.
    GuestAccess b = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE + 17),
                                   MemAccess::Read);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.paddr, a.paddr + 17);
    EXPECT_EQ(tc.hits(), h0 + 1);
    EXPECT_EQ(tc.misses(), m0 + 1);

    // The stats mirrors track the internal counters.
    EXPECT_EQ(r.stats().get("transcache/hits"), tc.hits());
    EXPECT_EQ(r.stats().get("transcache/misses"), tc.misses());
    EXPECT_EQ(r.stats().get("transcache/flushes"), tc.flushes());
}

TEST(TransCache, MapAndUnmapFlush)
{
    GuestRunner r;
    TranslationCache &tc = r.aspace.transCache();

    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                               MemAccess::Read).ok());
    U64 f0 = tc.flushes();
    Pfn fresh = r.physMem().allocFrame();
    r.aspace.map(r.root(), GuestVirt(0xA00000), fresh, Pte::RW | Pte::US);
    EXPECT_GT(tc.flushes(), f0);

    // After the flush the old line must re-walk (miss), not hit stale.
    U64 m0 = tc.misses();
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                               MemAccess::Read).ok());
    EXPECT_EQ(tc.misses(), m0 + 1);

    U64 f1 = tc.flushes();
    r.aspace.unmap(r.root(), GuestVirt(0xA00000));
    EXPECT_GT(tc.flushes(), f1);
    GuestAccess gone = guestTranslate(r.aspace, r.ctx, GuestVirt(0xA00000),
                                      MemAccess::Read);
    EXPECT_EQ(gone.fault, GuestFault::PageFaultRead);
}

TEST(TransCache, Cr3TagsKeepRootsDistinct)
{
    GuestRunner r;
    // A second root mapping the same VA to a different frame.
    Pfn cr3b = r.aspace.createRoot();
    Pfn other = r.physMem().allocFrame();
    r.aspace.map(cr3b, GuestVirt(DATA_BASE), other, Pte::RW | Pte::US);

    GuestAccess a = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                   MemAccess::Read);
    ASSERT_TRUE(a.ok());

    Context ctx2 = r.ctx;
    ctx2.cr3 = cr3b;
    GuestAccess b = guestTranslate(r.aspace, ctx2, GuestVirt(DATA_BASE),
                                   MemAccess::Read);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.paddr.pfn(), other);
    EXPECT_NE(a.paddr.pfn(), b.paddr.pfn());
}

TEST(TransCache, Cr3SwitchHypercallFlushes)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    Machine machine(cfg);
    AddressSpace &as = machine.addressSpace();
    Pfn root = as.createRoot();

    U64 f0 = as.transCache().flushes();
    U64 rc = machine.hypervisor().hypercall(machine.vcpu(0),
                                            HC_new_baseptr, root.raw(), 0, 0);
    EXPECT_EQ(rc, 0ULL);
    EXPECT_EQ(machine.vcpu(0).cr3, root);
    EXPECT_GT(as.transCache().flushes(), f0);
}

/**
 * A guest store that lands on a frame holding live page-table state
 * must invalidate cached translations: rewrite a leaf PTE through an
 * alias mapping and check the very next translate sees the new frame.
 */
TEST(TransCache, StoreToPageTableFrameInvalidates)
{
    GuestRunner r;
    // Warm the cache through the victim mapping so its walk frames are
    // registered for snooping.
    GuestAccess before = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                        MemAccess::Read);
    ASSERT_TRUE(before.ok());

    PageWalk w = r.aspace.walk(r.root(), GuestVirt(DATA_BASE));
    ASSERT_TRUE(w.present);
    Pfn leaf_frame = w.pte_addr[3].pfn();
    EXPECT_TRUE(r.aspace.isPageTableFrame(leaf_frame));

    // Alias-map the leaf table frame at a scratch VA (PD slot 5 is
    // untouched by the harness mappings), then re-warm the victim.
    constexpr U64 ALIAS = 5ULL << 21;
    r.aspace.map(r.root(), GuestVirt(ALIAS), leaf_frame, Pte::RW | Pte::US);
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                               MemAccess::Read).ok());

    // Point the victim PTE at a fresh frame via a plain guest store.
    Pfn fresh = r.physMem().allocFrame();
    U64 new_pte = (fresh.raw() << PAGE_SHIFT) | Pte::P | Pte::RW | Pte::US;
    U64 f0 = r.aspace.transCache().flushes();
    GuestAccess st = guestWrite(r.aspace, r.ctx,
                                GuestVirt(ALIAS) + w.pte_addr[3].pageOffset(),
                                8, new_pte);
    ASSERT_TRUE(st.ok());
    EXPECT_GT(r.aspace.transCache().flushes(), f0);

    GuestAccess after = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                       MemAccess::Read);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.paddr.pfn(), fresh);
    EXPECT_NE(after.paddr.pfn(), before.paddr.pfn());
}

/**
 * Self-modifying-code discipline: a store into a frame that both backs
 * decoded basic blocks and holds page-table state must invalidate the
 * bbcache (existing SMC snoop) AND the translation cache (new snoop),
 * in the same committed store.
 */
TEST(TransCache, SmcStoreInvalidatesBbcacheAndTransCache)
{
    GuestRunner r;
    // The leaf table for the harness code region: 256 PTEs occupy
    // bytes [0, 2048); the rest of the frame is dead space where a
    // test program can live.
    PageWalk w = r.aspace.walk(r.root(), GuestVirt(CODE_BASE));
    ASSERT_TRUE(w.present);
    Pfn leaf_frame = w.pte_addr[3].pfn();

    constexpr U64 ALIAS = 5ULL << 21;
    r.aspace.map(r.root(), GuestVirt(ALIAS), leaf_frame, Pte::RW | Pte::US);

    // Program at ALIAS+0x900: store to ALIAS+0xE00 (same frame), hlt.
    Assembler a(ALIAS + 0x900);
    a.movImm64(R::rbx, ALIAS + 0xE00);
    a.mov(R::rax, 0x5a);
    a.mov(Mem::at(R::rbx), R::rax);
    a.hlt();
    r.load(a);

    // Register the leaf table frame for snooping: a cached walk of any
    // code-region VA traverses it.
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(CODE_BASE),
                               MemAccess::Read).ok());
    ASSERT_TRUE(r.aspace.isPageTableFrame(leaf_frame));

    U64 f0 = r.aspace.transCache().flushes();
    U64 smc0 = r.stats().get("bbcache/smc_invalidations");
    r.execute();
    EXPECT_GT(r.aspace.transCache().flushes(), f0);
    EXPECT_GT(r.stats().get("bbcache/smc_invalidations"), smc0);
    EXPECT_EQ(r.readGuest(ALIAS + 0xE00, 8), 0x5aULL);
}

TEST(TransCache, CrossPageStoreAtomicityUnchanged)
{
    GuestRunner r;
    // Last mapped data page; the next page (0x700000) is unmapped.
    U64 va = DATA_BASE + 256 * PAGE_SIZE - 4;
    ASSERT_TRUE(guestWrite(r.aspace, r.ctx, GuestVirt(va - 8), 8,
                           0x1111222233334444ULL).ok());

    GuestAccess st = guestWrite(r.aspace, r.ctx, GuestVirt(va), 8,
                                0xdeadbeefcafef00dULL);
    EXPECT_EQ(st.fault, GuestFault::PageFaultWrite);
    // The mapped first half must be untouched (all-or-nothing).
    EXPECT_EQ(r.readGuest(va, 4), 0ULL);

    // Same store twice: the second attempt takes the cached-fault path
    // and must fault identically.
    GuestAccess st2 = guestWrite(r.aspace, r.ctx, GuestVirt(va), 8, 1);
    EXPECT_EQ(st2.fault, GuestFault::PageFaultWrite);
}

/**
 * A/D tracking must be byte-identical to the uncached walker: reads set
 * A on every level but never D; the first write through a clean cached
 * entry re-walks (a miss) so microcode sets D exactly once; later
 * writes hit.
 */
TEST(TransCache, AccessedDirtyBitsMatchUncachedWalk)
{
    GuestRunner r;
    TranslationCache &tc = r.aspace.transCache();
    U64 va = DATA_BASE + 37 * PAGE_SIZE;

    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(va), MemAccess::Read).ok());
    PageWalk w = r.aspace.walk(r.root(), GuestVirt(va));
    for (int level = 0; level < 4; level++)
        EXPECT_TRUE(r.physMem().read(w.pte_addr[level], 8) & Pte::A)
            << "level " << level;
    EXPECT_FALSE(r.physMem().read(w.pte_addr[3], 8) & Pte::D);

    // First write through the (clean) cached entry: counted as a miss,
    // walks, and sets D.
    U64 m0 = tc.misses(), h0 = tc.hits();
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(va), MemAccess::Write).ok());
    EXPECT_EQ(tc.misses(), m0 + 1);
    EXPECT_EQ(tc.hits(), h0);
    EXPECT_TRUE(r.physMem().read(w.pte_addr[3], 8) & Pte::D);

    // Now the Dirty state is cached: further writes are hits.
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(va), MemAccess::Write).ok());
    EXPECT_EQ(tc.hits(), h0 + 1);
    EXPECT_EQ(tc.misses(), m0 + 1);
}

TEST(TransCache, PermissionFaultsMatchUncachedWalk)
{
    GuestRunner r;
    // The data region is mapped NX: execute must fault, cached or not.
    GuestAccess cold = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                      MemAccess::Execute);
    EXPECT_EQ(cold.fault, GuestFault::PageFaultFetch);
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                               MemAccess::Read).ok());
    GuestAccess warm = guestTranslate(r.aspace, r.ctx, GuestVirt(DATA_BASE),
                                      MemAccess::Execute);
    EXPECT_EQ(warm.fault, GuestFault::PageFaultFetch);

    // User-mode access to a kernel-only page faults from the cache too.
    Pfn kframe = r.physMem().allocFrame();
    r.aspace.map(r.root(), GuestVirt(0xB00000), kframe, Pte::RW);  // no US
    ASSERT_TRUE(guestTranslate(r.aspace, r.ctx, GuestVirt(0xB00000),
                               MemAccess::Read).ok());  // kernel: fine
    Context user = r.ctx;
    user.kernel_mode = false;
    GuestAccess ua = guestTranslate(r.aspace, user, GuestVirt(0xB00000),
                                    MemAccess::Read);
    EXPECT_EQ(ua.fault, GuestFault::PageFaultRead);
}

TEST(TransCache, BulkCopyRoundTripsAcrossPages)
{
    GuestRunner r;
    std::vector<U8> src(3 * PAGE_SIZE + 123);
    for (size_t i = 0; i < src.size(); i++)
        src[i] = (U8)(i * 7 + 3);

    U64 va = DATA_BASE + PAGE_SIZE - 100;  // deliberately misaligned
    GuestCopy out = guestCopyOut(r.aspace, r.ctx, GuestVirt(va), src.data(),
                                 src.size());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.copied, src.size());

    std::vector<U8> back(src.size(), 0);
    GuestCopy in = guestCopyIn(r.aspace, r.ctx, back.data(), GuestVirt(va),
                               back.size());
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(in.copied, back.size());
    EXPECT_EQ(std::memcmp(src.data(), back.data(), src.size()), 0);
    EXPECT_EQ(in.first_paddr,
              guestTranslate(r.aspace, r.ctx, GuestVirt(va), MemAccess::Read).paddr);
}

TEST(TransCache, BulkCopyPartialFaultSemantics)
{
    GuestRunner r;
    // Start two pages before the unmapped hole at 0x700000.
    U64 va = DATA_BASE + 254 * PAGE_SIZE;
    std::vector<U8> buf(3 * PAGE_SIZE, 0xAB);

    GuestCopy out = guestCopyOut(r.aspace, r.ctx, GuestVirt(va), buf.data(),
                                 buf.size());
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.fault, GuestFault::PageFaultWrite);
    EXPECT_EQ(out.copied, 2 * PAGE_SIZE);
    EXPECT_EQ(out.fault_va, GuestVirt(DATA_BASE + 256 * PAGE_SIZE));
    // Everything before the fault was really written.
    EXPECT_EQ(r.readGuest(va + 2 * PAGE_SIZE - 8, 8),
              0xABABABABABABABABULL);

    GuestCopy in = guestCopyIn(r.aspace, r.ctx, buf.data(), GuestVirt(va),
                               buf.size());
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.copied, 2 * PAGE_SIZE);
    EXPECT_EQ(in.fault, GuestFault::PageFaultRead);
}

TEST(TransCache, GuestFillWritesAndFaultsLikeCopy)
{
    GuestRunner r;
    U64 va = DATA_BASE + 5 * PAGE_SIZE - 20;
    GuestCopy g = guestFill(r.aspace, r.ctx, GuestVirt(va), 0xCD, PAGE_SIZE + 40);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.copied, (size_t)PAGE_SIZE + 40);
    EXPECT_EQ(r.readGuest(va, 1), 0xCDULL);
    EXPECT_EQ(r.readGuest(va + PAGE_SIZE + 39, 1), 0xCDULL);
    EXPECT_EQ(r.readGuest(va + PAGE_SIZE + 40, 1), 0ULL);

    GuestCopy bad = guestFill(r.aspace, r.ctx,
                              GuestVirt(DATA_BASE + 255 * PAGE_SIZE), 0xEE,
                              2 * PAGE_SIZE);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.copied, (size_t)PAGE_SIZE);
}

/**
 * guestRead/guestWrite of 1, 2, 4 and 8 bytes that end on a page's last
 * byte, and the same accesses one byte later (crossing into the next
 * page, whose frame is elsewhere). Checked against the bulk copy path:
 * the value read, the bytes written, and the bytes around them.
 */
TEST(GuestWordAccess, AccessesEndingOnAndCrossingAPageEnd)
{
    GuestRunner r;
    const U64 page_end = DATA_BASE + 10 * PAGE_SIZE;  // next page's base
    const U64 window = page_end - 16;
    std::vector<U8> pattern(32);
    for (size_t i = 0; i < pattern.size(); i++)
        pattern[i] = (U8)(0xA0 + i);
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        for (U64 shift : {0u, 1u}) {
            const U64 va = page_end - size + shift;
            SCOPED_TRACE(testing::Message() << "size " << size << " va "
                                            << std::hex << va);
            ASSERT_TRUE(guestCopyOut(r.aspace, r.ctx, GuestVirt(window),
                                     pattern.data(), pattern.size()).ok());
            const size_t at = (size_t)(va - window);

            U64 want = 0;
            for (unsigned i = 0; i < size; i++)
                want |= (U64)pattern[at + i] << (8 * i);
            U64 got = ~0ULL;
            GuestAccess rd = guestRead(r.aspace, r.ctx, GuestVirt(va), size,
                                       got);
            ASSERT_TRUE(rd.ok());
            EXPECT_EQ(got, want);
            EXPECT_EQ(rd.paddr, guestTranslate(r.aspace, r.ctx, GuestVirt(va),
                                               MemAccess::Read).paddr);

            const U64 value = 0x8877665544332211ULL;
            GuestAccess wr = guestWrite(r.aspace, r.ctx, GuestVirt(va), size,
                                        value);
            ASSERT_TRUE(wr.ok());
            EXPECT_EQ(wr.paddr, rd.paddr);
            std::vector<U8> expect = pattern;
            for (unsigned i = 0; i < size; i++)
                expect[at + i] = (U8)(value >> (8 * i));
            std::vector<U8> back(pattern.size());
            ASSERT_TRUE(guestCopyIn(r.aspace, r.ctx, back.data(),
                                    GuestVirt(window), back.size()).ok());
            EXPECT_EQ(back, expect);
        }
    }
}

/** A crossing store whose second page is mapped read-only faults and
 *  leaves both pages' bytes as they were; a crossing load of the same
 *  bytes succeeds. */
TEST(GuestWordAccess, CrossingStoreIntoReadOnlyPageChangesNeitherPage)
{
    GuestRunner r;
    constexpr U64 VA = 0xA00000;  // PD slot 5: unused by the harness
    Pfn rw_frame = r.physMem().allocFrame();
    Pfn ro_frame = r.physMem().allocFrame();
    r.aspace.map(r.root(), GuestVirt(VA), rw_frame, Pte::RW | Pte::US);
    r.aspace.map(r.root(), GuestVirt(VA + PAGE_SIZE), ro_frame, Pte::US);
    for (U64 i = 0; i < PAGE_SIZE; i++) {
        r.physMem().frameData(rw_frame)[i] = (U8)(i * 3 + 1);
        r.physMem().frameData(ro_frame)[i] = (U8)(i * 5 + 2);
    }
    const std::vector<U8> rw_before(r.physMem().frameData(rw_frame),
                                    r.physMem().frameData(rw_frame) + PAGE_SIZE);
    const std::vector<U8> ro_before(r.physMem().frameData(ro_frame),
                                    r.physMem().frameData(ro_frame) + PAGE_SIZE);

    const U64 va = VA + PAGE_SIZE - 3;
    for (unsigned size : {4u, 8u}) {
        GuestAccess st = guestWrite(r.aspace, r.ctx, GuestVirt(va), size,
                                    0xFFFFFFFFFFFFFFFFULL);
        EXPECT_EQ(st.fault, GuestFault::PageFaultWrite) << size;
        EXPECT_TRUE(std::equal(rw_before.begin(), rw_before.end(),
                               r.physMem().frameData(rw_frame)))
            << size;
        EXPECT_TRUE(std::equal(ro_before.begin(), ro_before.end(),
                               r.physMem().frameData(ro_frame)))
            << size;
    }

    U64 v = 0;
    ASSERT_TRUE(guestRead(r.aspace, r.ctx, GuestVirt(va), 8, v).ok());
    U64 want = 0;
    for (unsigned i = 0; i < 3; i++)
        want |= (U64)rw_before[PAGE_SIZE - 3 + i] << (8 * i);
    for (unsigned i = 0; i < 5; i++)
        want |= (U64)ro_before[i] << (8 * (3 + i));
    EXPECT_EQ(v, want);
}

/** A crossing load whose second page is unmapped reports the second
 *  page's fault with no address and reads nothing. */
TEST(GuestWordAccess, CrossingLoadIntoUnmappedPageFaults)
{
    GuestRunner r;
    const U64 va = DATA_BASE + 256 * PAGE_SIZE - 2;  // 0x700000 unmapped
    ASSERT_TRUE(guestWrite(r.aspace, r.ctx, GuestVirt(va), 2, 0xBEEF).ok());
    U64 v = ~0ULL;
    GuestAccess a = guestRead(r.aspace, r.ctx, GuestVirt(va), 4, v);
    EXPECT_EQ(a.fault, GuestFault::PageFaultRead);
    EXPECT_EQ(a.paddr, GuestPhys(0));
    EXPECT_EQ(v, 0ULL);
}

/** Engine-level sanity: running real guest code populates the cache
 *  and the shadow-walk verifier stays silent. */
TEST(TransCache, EngineRunProducesHitsUnderShadowVerification)
{
    GuestRunner r;
    ASSERT_TRUE(r.aspace.transCache().shadowEnabled());
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 500);
    Label top = a.label();
    a.mov(Mem::at(R::rbx), R::rcx);
    a.mov(R::rdx, Mem::at(R::rbx));
    a.add(R::rbx, 8);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.execute();
    EXPECT_GT(r.aspace.transCache().hits(), 500ULL);
    EXPECT_GT(r.stats().get("transcache/shadow_checks"), 0ULL);
}

}  // namespace
}  // namespace ptl
