/**
 * Tests for the pluggable main-memory backends (src/mem/membackend.h)
 * and replacement policies (src/mem/replacement.h): per-model timing
 * (flat, row-buffer, eDRAM+PCM with deferred writes), config-JSON
 * selection, mid-flight checkpoint round-trips through Archive,
 * corrupt-image rejection, two-run bit-identical determinism,
 * drain-cadence independence, and the bulk-fill regression pinning
 * the hierarchy's cycle counts under the fixed (pre-refactor) and
 * banked models.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "lib/rng.h"
#include "mem/hierarchy.h"
#include "mem/replacement.h"

namespace ptl {
namespace {

// K8 preset timing used throughout: L1D 3, L2 10, flat memory 112;
// banked DRAM row hit 40 (t_cas), closed bank 76 (t_rcd+t_cas),
// conflict 112 (t_rp+t_rcd+t_cas, deliberately equal to the flat
// latency); hybrid eDRAM hit 24, PCM read 160, PCM write 480.

SimConfig
backendConfig(MemBackendKind kind)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.membackend.kind = kind;
    return cfg;
}

// ---------------------------------------------------------------------
// FixedLatencyBackend: the bit-identical default.
// ---------------------------------------------------------------------

TEST(FixedBackend, FlatLatencyAndCounters)
{
    StatsTree stats;
    SimConfig cfg = backendConfig(MemBackendKind::Fixed);
    auto be = makeMemBackend(cfg, stats, "c0/");
    EXPECT_STREQ(be->name(), "fixed");
    EXPECT_EQ(be->request(GuestPhys(0x10000), false, SimCycle(100)), SimCycle(212));
    EXPECT_EQ(be->request(GuestPhys(0x10000), true, SimCycle(100)), SimCycle(212));
    // Stateless: an immediately repeated access costs the same.
    EXPECT_EQ(be->request(GuestPhys(0x20000), false, SimCycle(100)), SimCycle(212));
    EXPECT_EQ(stats.get("c0/membackend/reads"), 2ULL);
    EXPECT_EQ(stats.get("c0/membackend/writes"), 1ULL);
    EXPECT_EQ(be->nextDue(), CYCLE_NEVER);
    MemBackend::AuditView v = be->audit();
    EXPECT_FALSE(v.banked);
    EXPECT_EQ(v.deferred_capacity, 0u);
}

// ---------------------------------------------------------------------
// BankedDramBackend: open rows, conflicts, bank queueing.
// ---------------------------------------------------------------------

TEST(BankedBackend, RowHitConflictAndBusyTiming)
{
    StatsTree stats;
    SimConfig cfg = backendConfig(MemBackendKind::BankedDram);
    auto be = makeMemBackend(cfg, stats, "c0/");
    EXPECT_STREQ(be->name(), "banked-dram");

    // Cold bank: t_rcd + t_cas = 76.
    EXPECT_EQ(be->request(GuestPhys(0x10000), false, SimCycle(100)), SimCycle(176));
    // Consecutive line, same open row: t_cas = 40.
    EXPECT_EQ(be->request(GuestPhys(0x10040), false, SimCycle(1000)), SimCycle(1040));
    EXPECT_EQ(stats.get("c0/membackend/row_hits"), 1ULL);
    // Same bank (stride row_bytes * banks), different row: conflict
    // pays t_rp + t_rcd + t_cas = 112.
    EXPECT_EQ(be->request(GuestPhys(0x10000 + 2048 * 8), false, SimCycle(2000)),
              SimCycle(2112));
    EXPECT_EQ(stats.get("c0/membackend/row_conflicts"), 1ULL);
    // Busy bank: the second same-cycle access queues behind the first
    // (row hit after the reopened row) instead of overlapping.
    SimCycle first = be->request(GuestPhys(0x10000 + 2048 * 8), false, SimCycle(3000));
    EXPECT_EQ(first, SimCycle(3040));
    EXPECT_EQ(be->request(GuestPhys(0x10040 + 2048 * 8), false, SimCycle(3000)),
              first + cycles(40));
    EXPECT_EQ(stats.get("c0/membackend/busy_waits"), 1ULL);
    // Banked model exposes its stamps to the invariant checker.
    MemBackend::AuditView v = be->audit();
    EXPECT_TRUE(v.banked);
    EXPECT_EQ(v.max_bank_busy, first + cycles(40));
}

TEST(BankedBackend, SerializeRestoreMidFlightIsBitExact)
{
    SimConfig cfg = backendConfig(MemBackendKind::BankedDram);
    StatsTree s1, s2;
    auto a = makeMemBackend(cfg, s1, "c0/");
    // Leave several banks mid-flight: busy stamps in the future.
    Rng rng(42);
    for (int i = 0; i < 32; i++)
        a->request(GuestPhys(rng.below(1 << 20) * 64), rng.chance(1, 4),
                   SimCycle(5000 + (U64)i));

    std::vector<U64> words = Archive::save(*a);
    auto b = makeMemBackend(cfg, s2, "c0/");
    Archive::load(*b, words);

    // Identical follow-up traffic must produce identical stamps.
    Rng follow(7);
    for (int i = 0; i < 64; i++) {
        U64 addr = follow.below(1 << 20) * 64;
        bool wr = follow.chance(1, 3);
        SimCycle now(5100 + (U64)i * 3);
        EXPECT_EQ(a->request(GuestPhys(addr), wr, now), b->request(GuestPhys(addr), wr, now))
            << "divergence at follow-up access " << i;
    }
    EXPECT_EQ(Archive::save(*a), Archive::save(*b));
}

// ---------------------------------------------------------------------
// HybridBackend: eDRAM front, PCM banks, deferred writes.
// ---------------------------------------------------------------------

TEST(HybridBackend, EdramHitMissAndDeferredWriteDrain)
{
    StatsTree stats;
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    auto be = makeMemBackend(cfg, stats, "c0/");
    EXPECT_STREQ(be->name(), "hybrid");

    // Cold read: PCM array read (160) + eDRAM load-out (24).
    EXPECT_EQ(be->request(GuestPhys(0x0), false, SimCycle(100)), SimCycle(284));
    EXPECT_EQ(stats.get("c0/membackend/pcm_reads"), 1ULL);
    // Warm read: eDRAM hit at 24.
    EXPECT_EQ(be->request(GuestPhys(0x0), false, SimCycle(500)), SimCycle(524));
    EXPECT_EQ(stats.get("c0/membackend/edram_hits"), 1ULL);

    // Dirty the line, then stream 8 more tags through its 8-way set
    // (same-set stride = sets * line = 8192 * 64): the dirty victim
    // enters the deferred-write queue instead of paying PCM's 480-
    // cycle write synchronously.
    be->request(GuestPhys(0x0), true, SimCycle(600));
    constexpr U64 SET_STRIDE = 8192 * 64;
    for (int i = 1; i <= 8; i++)
        be->request(GuestPhys((U64)i * SET_STRIDE), false, SimCycle(700 + (U64)i * 400));
    EXPECT_EQ(stats.get("c0/membackend/deferred_enqueued"), 1ULL);
    EXPECT_EQ(be->audit().deferred_depth, 1u);
    ASSERT_FALSE(be->nextDue().never());

    // The queued write drains once simulated time passes its bank's
    // busy window; afterwards the backend goes quiet.
    be->drainTo(be->nextDue() + cycles(1));
    EXPECT_EQ(stats.get("c0/membackend/deferred_drained"), 1ULL);
    EXPECT_EQ(stats.get("c0/membackend/pcm_writes"), 1ULL);
    EXPECT_EQ(be->audit().deferred_depth, 0u);
    EXPECT_EQ(be->nextDue(), CYCLE_NEVER);
}

TEST(HybridBackend, FullDeferredQueueForcesSynchronousDrain)
{
    StatsTree stats;
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    cfg.membackend.deferred_writes = 2;
    auto be = makeMemBackend(cfg, stats, "c0/");

    // Three dirty victims in quick succession (no idle time to drain):
    // the third eviction finds the queue full and forces the oldest
    // write through synchronously.
    constexpr U64 SET_STRIDE = 8192 * 64;
    for (int i = 0; i < 8; i++)
        be->request(GuestPhys((U64)i * SET_STRIDE), true, SimCycle(100 + (U64)i));
    for (int i = 8; i < 11; i++)
        be->request(GuestPhys((U64)i * SET_STRIDE), false, SimCycle(100 + (U64)i));
    EXPECT_EQ(stats.get("c0/membackend/deferred_forced"), 1ULL);
    EXPECT_LE(be->audit().deferred_depth, be->audit().deferred_capacity);
}

TEST(HybridBackend, SerializeRestoreWithNonEmptyDeferredQueue)
{
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    StatsTree s1, s2;
    auto a = makeMemBackend(cfg, s1, "c0/");

    // Build up real mid-flight state: dirty lines, busy PCM banks,
    // and a non-empty deferred-write queue.
    constexpr U64 SET_STRIDE = 8192 * 64;
    for (int i = 0; i < 8; i++)
        a->request(GuestPhys((U64)i * SET_STRIDE), true, SimCycle(100 + (U64)i));
    for (int i = 8; i < 12; i++)
        a->request(GuestPhys((U64)i * SET_STRIDE), false, SimCycle(110 + (U64)i));
    ASSERT_GT(a->audit().deferred_depth, 0u);

    std::vector<U64> words = Archive::save(*a);
    auto b = makeMemBackend(cfg, s2, "c0/");
    Archive::load(*b, words);
    EXPECT_EQ(b->audit().deferred_depth, a->audit().deferred_depth);
    EXPECT_EQ(b->nextDue(), a->nextDue());

    // Replay identical traffic on both sides: completions, drains and
    // the final full state must match bit-exactly.
    Rng follow(19);
    for (int i = 0; i < 64; i++) {
        U64 addr = follow.below(4096) * SET_STRIDE / 16;
        bool wr = follow.chance(1, 2);
        SimCycle now(200 + (U64)i * 37);
        EXPECT_EQ(a->request(GuestPhys(addr), wr, now), b->request(GuestPhys(addr), wr, now))
            << "divergence at follow-up access " << i;
    }
    EXPECT_EQ(Archive::save(*a), Archive::save(*b));
}

TEST(HybridBackend, DrainCadenceDoesNotChangeTiming)
{
    // The backend self-drains from typed stamps, so how often a core
    // pumps drainTo() must not affect any completion time or the
    // final state — the property skip-ahead cores rely on.
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    StatsTree s1, s2;
    auto lazy = makeMemBackend(cfg, s1, "c0/");
    auto eager = makeMemBackend(cfg, s2, "c0/");

    Rng rng(23), pump(91);
    constexpr U64 SET_STRIDE = 8192 * 64;
    for (int i = 0; i < 256; i++) {
        U64 addr = rng.below(64) * SET_STRIDE + rng.below(4) * 64;
        bool wr = rng.chance(1, 2);
        SimCycle now(1000 + (U64)i * 211);
        // The eager instance gets extra drain pumps at random times.
        if (pump.chance(1, 2))
            eager->drainTo(now - cycles(pump.below(200)));
        EXPECT_EQ(lazy->request(GuestPhys(addr), wr, now),
                  eager->request(GuestPhys(addr), wr, now))
            << "cadence-dependent completion at access " << i;
    }
    lazy->drainTo(SimCycle(1'000'000));
    eager->drainTo(SimCycle(1'000'000));
    EXPECT_EQ(Archive::save(*lazy), Archive::save(*eager));
}

// ---------------------------------------------------------------------
// Two-run bit-identical determinism, per backend.
// ---------------------------------------------------------------------

class BackendDeterminism
    : public ::testing::TestWithParam<MemBackendKind>
{
};

TEST_P(BackendDeterminism, TwoRunsBitIdentical)
{
    SimConfig cfg = backendConfig(GetParam());
    StatsTree s1, s2;
    auto a = makeMemBackend(cfg, s1, "c0/");
    auto b = makeMemBackend(cfg, s2, "c0/");
    for (int run = 0; run < 2; run++) {
        Rng rng(1234);
        MemBackend &be = run == 0 ? *a : *b;
        for (int i = 0; i < 2048; i++)
            be.request(GuestPhys(rng.below(1 << 22) * 64), rng.chance(1, 3),
                       SimCycle(100 + (U64)i * 17));
        be.drainTo(SimCycle(1'000'000));
    }
    EXPECT_EQ(Archive::save(*a), Archive::save(*b));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendDeterminism,
                         ::testing::Values(MemBackendKind::Fixed,
                                           MemBackendKind::BankedDram,
                                           MemBackendKind::Hybrid));

// ---------------------------------------------------------------------
// Corrupt checkpoint images: loading must end in fatal(), never in a
// silently misread backend.
// ---------------------------------------------------------------------

/** A mid-flight hybrid image: dirty eDRAM lines, deferred writes. */
std::vector<U64>
hybridImage(const SimConfig &cfg)
{
    StatsTree stats;
    auto be = makeMemBackend(cfg, stats, "c0/");
    constexpr U64 SET_STRIDE = 8192 * 64;
    for (int i = 0; i < 10; i++)
        be->request(GuestPhys((U64)i * SET_STRIDE), true, SimCycle(100 + (U64)i));
    return Archive::save(*be);
}

TEST(CorruptCheckpoint, TruncatedImageIsFatal)
{
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    std::vector<U64> words = hybridImage(cfg);
    words.pop_back();
    StatsTree stats;
    auto be = makeMemBackend(cfg, stats, "c0/");
    EXPECT_DEATH(Archive::load(*be, words), "truncated");
}

TEST(CorruptCheckpoint, TrailingWordsAreFatal)
{
    SimConfig cfg = backendConfig(MemBackendKind::Hybrid);
    std::vector<U64> words = hybridImage(cfg);
    words.push_back(0);
    StatsTree stats;
    auto be = makeMemBackend(cfg, stats, "c0/");
    EXPECT_DEATH(Archive::load(*be, words), "1 trailing words");
}

TEST(CorruptCheckpoint, WrongModelTagIsFatal)
{
    // A banked image loaded into the fixed model is rejected, not
    // misread.
    StatsTree s1, s2;
    auto banked = makeMemBackend(backendConfig(MemBackendKind::BankedDram),
                                 s1, "c0/");
    auto fixed = makeMemBackend(backendConfig(MemBackendKind::Fixed),
                                s2, "c0/");
    std::vector<U64> words = Archive::save(*banked);
    EXPECT_DEATH(Archive::load(*fixed, words), "model tag");
}

/** Narrow values and byte buffers, as the machine's owners use them. */
struct NarrowState
{
    U16 flags = 0;
    bool on = false;
    int delta = 0;
    std::vector<U8> packet;
    std::deque<U8> stream;

    void
    visit(Archive &ar)
    {
        ar(flags, on, delta);
        ar.bytes(packet);
        ar.bytes(stream);
    }
};

TEST(Archive, NarrowValuesAndByteBuffersRoundTrip)
{
    NarrowState s{0xBEEF, true, -3, {1, 2, 3, 4, 5, 6, 7, 8, 9}, {}};
    for (U8 b = 0; b < 13; b++)
        s.stream.push_back(U8(0xF0 + b));
    const std::vector<U64> words = Archive::save(s);
    // One word per narrow value; a buffer is its length, then its
    // bytes eight to a word.
    EXPECT_EQ(words.size(), 3u + (1 + 2) + (1 + 2));
    NarrowState t;
    Archive::load(t, words);
    EXPECT_EQ(t.flags, 0xBEEF);
    EXPECT_TRUE(t.on);
    EXPECT_EQ(t.delta, -3);
    EXPECT_EQ(t.packet, s.packet);
    EXPECT_EQ(t.stream, s.stream);
}

TEST(CorruptCheckpoint, NarrowValueOverflowIsFatal)
{
    NarrowState s;
    const std::vector<U64> words = Archive::save(s);
    std::vector<U64> bad = words;
    bad[0] = 0x10000;  // U16
    EXPECT_DEATH(Archive::load(s, bad), "does not fit a 2-byte value");
    bad = words;
    bad[1] = 2;  // bool
    EXPECT_DEATH(Archive::load(s, bad), "does not fit a 1-byte value");
    bad = words;
    bad[2] = U64(1) << 40;  // int
    EXPECT_DEATH(Archive::load(s, bad), "does not fit a 4-byte value");
    bad = words;
    bad[3] = 17;  // packet length past the image
    EXPECT_DEATH(Archive::load(s, bad), "17 bytes exceed");
}

TEST(CorruptCheckpoint, GeometryMismatchIsFatal)
{
    // A different DRAM bank count.
    SimConfig cfg = backendConfig(MemBackendKind::BankedDram);
    StatsTree s1, s2;
    auto a = makeMemBackend(cfg, s1, "c0/");
    cfg.membackend.dram_banks *= 2;
    auto b = makeMemBackend(cfg, s2, "c0/");
    EXPECT_DEATH(Archive::load(*b, Archive::save(*a)), "recorded size");

    // A different eDRAM size.
    cfg = backendConfig(MemBackendKind::Hybrid);
    std::vector<U64> words = hybridImage(cfg);
    cfg.membackend.edram_size_bytes /= 2;
    StatsTree s3;
    auto c = makeMemBackend(cfg, s3, "c0/");
    EXPECT_DEATH(Archive::load(*c, words), "recorded size");
}

// ---------------------------------------------------------------------
// Config plumbing: backends and policies selected purely from JSON.
// ---------------------------------------------------------------------

TEST(MemoryConfig, JsonSelectsBackendAndPolicies)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "banked",
        "dram": {"banks": "16", "t_cas": "20"},
        "l1d": {"repl": "tree-plru"},
        "l2":  {"repl": "random"}
    })");
    EXPECT_EQ(cfg.membackend.kind, MemBackendKind::BankedDram);
    EXPECT_EQ(cfg.membackend.dram_banks, 16);
    EXPECT_EQ(cfg.membackend.t_cas, 20);
    EXPECT_EQ(cfg.l1d.repl, ReplKind::TreePlru);
    EXPECT_EQ(cfg.l2.repl, ReplKind::Random);
    cfg.validate();

    // The configured t_cas shows up in the built backend's timing.
    StatsTree stats;
    auto be = makeMemBackend(cfg, stats, "c0/");
    be->request(GuestPhys(0x10000), false, SimCycle(100));
    EXPECT_EQ(be->request(GuestPhys(0x10040), false, SimCycle(1000)), SimCycle(1020));
}

TEST(MemoryConfig, JsonSelectsHybrid)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "hybrid",
        "edram": {"size": "2097152", "latency": "12"},
        "pcm": {"read_latency": "200", "deferred_writes": "4"}
    })");
    EXPECT_EQ(cfg.membackend.kind, MemBackendKind::Hybrid);
    EXPECT_EQ(cfg.membackend.edram_size_bytes, 2097152ULL);
    EXPECT_EQ(cfg.membackend.edram_latency, 12);
    EXPECT_EQ(cfg.membackend.pcm_read_latency, 200);
    EXPECT_EQ(cfg.membackend.deferred_writes, 4);
    cfg.validate();

    StatsTree stats;
    auto be = makeMemBackend(cfg, stats, "c0/");
    // Cold read: PCM 200 + eDRAM 12.
    EXPECT_EQ(be->request(GuestPhys(0x0), false, SimCycle(100)), SimCycle(312));
    EXPECT_EQ(be->audit().deferred_capacity, 4u);
}

// ---------------------------------------------------------------------
// Config error paths: malformed memory JSON and out-of-range
// parameters must die with a message naming the offender, not load a
// half-applied configuration.
// ---------------------------------------------------------------------

TEST(MemoryConfigErrors, UnknownTopLevelKeyIsRejected)
{
    SimConfig cfg = SimConfig::preset("k8");
    EXPECT_DEATH(
        cfg.applyMemoryJson(R"({"version": "1", "frobnicate": "3"})"),
        "unknown key 'frobnicate'");
}

TEST(MemoryConfigErrors, UnknownGroupKeyIsRejected)
{
    SimConfig cfg = SimConfig::preset("k8");
    EXPECT_DEATH(
        cfg.applyMemoryJson(
            R"({"version": "1", "dram2": {"banks": "4"}})"),
        "unknown key 'dram2.banks'");
}

TEST(MemoryConfigErrors, UnsupportedVersionIsRejected)
{
    SimConfig cfg = SimConfig::preset("k8");
    EXPECT_DEATH(cfg.applyMemoryJson(R"({"version": "2"})"),
                 "unsupported version '2'");
}

TEST(MemoryConfigErrors, MissingVersionIsRejected)
{
    SimConfig cfg = SimConfig::preset("k8");
    EXPECT_DEATH(cfg.applyMemoryJson(R"({"backend": "fixed"})"),
                 "missing required \"version\" key");
}

TEST(MemoryConfigErrors, NonPowerOfTwoDramBanksFailValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "banked",
        "dram": {"banks": "12"}
    })");
    EXPECT_DEATH(cfg.validate(), "dram_banks 12 must be a power of two");
}

TEST(MemoryConfigErrors, ZeroCasLatencyFailsValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "banked",
        "dram": {"t_cas": "0"}
    })");
    EXPECT_DEATH(cfg.validate(), "DRAM timing parameters out of range");
}

TEST(MemoryConfigErrors, TinyRowBytesFailValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "banked",
        "dram": {"row_bytes": "16"}
    })");
    EXPECT_DEATH(cfg.validate(), "row_bytes 16 must be a power of two");
}

TEST(MemoryConfigErrors, ZeroPcmLatencyFailsValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "hybrid",
        "pcm": {"read_latency": "0"}
    })");
    EXPECT_DEATH(cfg.validate(), "PCM latencies must be positive");
}

TEST(MemoryConfigErrors, ZeroDeferredWritesFailsValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "hybrid",
        "pcm": {"deferred_writes": "0"}
    })");
    EXPECT_DEATH(cfg.validate(), "deferred_writes 0 must be positive");
}

TEST(MemoryConfigErrors, BadEdramGeometryFailsValidate)
{
    SimConfig cfg = SimConfig::preset("k8");
    // 3000 bytes is not ways * line_bytes * pow2 sets — the forced
    // geometry check must reject it.
    cfg.applyMemoryJson(R"({
        "version": "1",
        "backend": "hybrid",
        "edram": {"size": "3000"}
    })");
    EXPECT_DEATH(cfg.validate(), "");
}

TEST(MemoryConfigErrors, BadTimingParametersFailValidate)
{
    // A zero snapshot interval would re-arm the snapshot at the same
    // cycle forever; the timer period and native-mode cycle accounting
    // divide by timer_hz and native_ipc_x1000.
    SimConfig cfg = SimConfig::preset("k8");
    cfg.snapshot_interval = 0;
    EXPECT_DEATH(cfg.validate(), "snapshot_interval 0 must be positive");
    cfg = SimConfig::preset("k8");
    cfg.timer_hz = 0;
    EXPECT_DEATH(cfg.validate(), "timer_hz 0 out of range");
    cfg.core_freq_hz = 1000;
    cfg.timer_hz = 1001;
    EXPECT_DEATH(cfg.validate(), "timer_hz 1001 out of range");
    cfg = SimConfig::preset("k8");
    cfg.native_ipc_x1000 = 0;
    EXPECT_DEATH(cfg.validate(), "native_ipc_x1000 0 must be positive");
}

// ---------------------------------------------------------------------
// Replacement policies.
// ---------------------------------------------------------------------

TEST(ReplacementPolicy, LruVictimIsLeastRecentlyTouched)
{
    auto lru = makeReplacementPolicy(ReplKind::Lru, 4, 4, 0);
    for (int w = 0; w < 4; w++)
        lru->touch(1, w);
    lru->touch(1, 0);          // refresh way 0: way 1 is now oldest
    EXPECT_EQ(lru->victim(1), 1);
    lru->touch(1, 1);
    EXPECT_EQ(lru->victim(1), 2);
    // Other sets are independent: set 0 was never touched.
    EXPECT_EQ(lru->victim(0), 0);
}

TEST(ReplacementPolicy, TreePlruPointsAwayFromRecentTouches)
{
    auto plru = makeReplacementPolicy(ReplKind::TreePlru, 2, 8, 0);
    // Touch 0..7 in order: every tree level last pointed AWAY from
    // the high half, so the walk lands back on way 0 (the pseudo-LRU
    // approximation tracks halves, not exact ages).
    for (int w = 0; w < 8; w++)
        plru->touch(0, w);
    EXPECT_EQ(plru->victim(0), 0);
    // Touching the left half flips the root: the next victim comes
    // from the right half.
    plru->touch(0, 0);
    EXPECT_GE(plru->victim(0), 4);
    // The victim is never the way touched most recently.
    for (int w = 0; w < 8; w++) {
        plru->touch(0, w);
        EXPECT_NE(plru->victim(0), w);
    }
    // reset() forgets history: the walk returns to way 0.
    plru->reset();
    EXPECT_EQ(plru->victim(0), 0);
}

TEST(ReplacementPolicy, RandomIsSeededAndDeterministic)
{
    auto a = makeReplacementPolicy(ReplKind::Random, 8, 4, 99);
    auto b = makeReplacementPolicy(ReplKind::Random, 8, 4, 99);
    auto c = makeReplacementPolicy(ReplKind::Random, 8, 4, 100);
    std::vector<int> va, vb, vc;
    for (int i = 0; i < 64; i++) {
        va.push_back(a->victim(i % 8));
        vb.push_back(b->victim(i % 8));
        vc.push_back(c->victim(i % 8));
    }
    EXPECT_EQ(va, vb);          // same seed, same stream
    EXPECT_NE(va, vc);          // different seed diverges
    for (int v : va) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 4);
    }
}

TEST(ReplacementPolicy, CacheArrayEvictionCounterAndPolicySwap)
{
    // Stream ways+1 same-set lines through a tiny 2-way array: one
    // eviction, counted through the owner-bound counter.
    StatsTree stats;
    Counter &ev = stats.counter("test/evictions");
    CacheParams small{4 << 10, 2, 64, 1, 8, 1};  // 32 sets, 2 ways
    small.repl = ReplKind::Random;
    CacheArray arr(small, &ev, 7);
    EXPECT_STREQ(arr.replName(), "random");
    U64 stride = 32 * 64;       // same-set stride
    for (int i = 0; i < 3; i++)
        arr.insert(GuestPhys((U64)i * stride), LineState::Shared);
    EXPECT_EQ(ev.value(), 1ULL);
    // Exactly one of the first two lines was displaced.
    bool l0 = arr.lookup(GuestPhys(0), false) != nullptr;
    bool l1 = arr.lookup(GuestPhys(stride), false) != nullptr;
    EXPECT_TRUE(arr.lookup(GuestPhys(2 * stride), false) != nullptr);
    EXPECT_NE(l0, l1);
}

// ---------------------------------------------------------------------
// Hierarchy integration: the bulk-fill regression (ISSUE 8 satellite).
// Pre-refactor, every fill paid the flat 112-cycle latency; with the
// banked backend a demand miss opens the row, so consecutive lines
// pipeline at t_cas behind the bank stamp. Pin both schedules.
// ---------------------------------------------------------------------

class BackendHierarchyTest : public ::testing::Test
{
  protected:
    std::unique_ptr<MemoryHierarchy>
    makeHier(MemBackendKind kind, StatsTree &stats)
    {
        cfg = backendConfig(kind);
        cfg.guest_mem_bytes = 16 << 20;
        return std::make_unique<MemoryHierarchy>(cfg, *aspace, stats,
                                                 "c0/");
    }

    void
    SetUp() override
    {
        mem = std::make_unique<PhysMem>(16 << 20, 5, true);
        aspace = std::make_unique<AddressSpace>(*mem);
    }

    SimConfig cfg;
    std::unique_ptr<PhysMem> mem;
    std::unique_ptr<AddressSpace> aspace;
};

TEST_F(BackendHierarchyTest, FixedKeepsPreRefactorCycleCounts)
{
    StatsTree stats;
    auto hier = makeHier(MemBackendKind::Fixed, stats);
    // The exact pre-refactor schedule: L1D(3) + L2(10) + 112 cold,
    // and a second distinct line costs the same (no row state).
    MemResult a = hier->dataAccess(GuestPhys(0x10000), false, SimCycle(100));
    EXPECT_EQ(a.latency, cycles(125));
    MemResult b = hier->dataAccess(GuestPhys(0x10040), false, SimCycle(1000));
    EXPECT_EQ(b.latency, cycles(125));
    EXPECT_EQ(stats.get("c0/membackend/reads"), 2ULL);
}

TEST_F(BackendHierarchyTest, BankedPipelinesConsecutiveLines)
{
    StatsTree stats;
    auto hier = makeHier(MemBackendKind::BankedDram, stats);
    // Cold bank: L1D(3) + L2(10) + (t_rcd + t_cas = 76) = 89.
    MemResult a = hier->dataAccess(GuestPhys(0x10000), false, SimCycle(100));
    EXPECT_EQ(a.latency, cycles(89));
    // Next line hits the open row: L1D(3) + L2(10) + t_cas(40) = 53 —
    // the bulk-fill pessimism the backend seam removes.
    MemResult b = hier->dataAccess(GuestPhys(0x10040), false, SimCycle(1000));
    EXPECT_EQ(b.latency, cycles(53));
    EXPECT_EQ(stats.get("c0/membackend/row_hits"), 1ULL);
}

TEST_F(BackendHierarchyTest, BulkCodeFillsGoThroughTheBackend)
{
    // Straight-line cold code: fetchAccess's next-line bulk fill must
    // be priced by the backend (open-row hits), not silently free.
    StatsTree stats;
    auto hier = makeHier(MemBackendKind::BankedDram, stats);
    hier->fetchAccess(GuestPhys(0x40000), SimCycle(100));
    EXPECT_GE(stats.get("c0/membackend/reads"), 2ULL);
    EXPECT_GE(stats.get("c0/membackend/row_hits"), 1ULL);

    // Under the fixed backend the same fills are flat-priced requests,
    // keeping the default's timing bit-identical while still counting.
    StatsTree stats2;
    auto fixed = makeHier(MemBackendKind::Fixed, stats2);
    fixed->fetchAccess(GuestPhys(0x40000), SimCycle(100));
    EXPECT_GE(stats2.get("c0/membackend/reads"), 2ULL);
}

TEST_F(BackendHierarchyTest, HierarchyRunsOnAllBackends)
{
    // Smoke every backend through the same mixed traffic; each must
    // service it and land its own counters.
    for (MemBackendKind kind : {MemBackendKind::Fixed,
                                MemBackendKind::BankedDram,
                                MemBackendKind::Hybrid}) {
        StatsTree stats;
        auto hier = makeHier(kind, stats);
        Rng rng(3);
        for (int i = 0; i < 512; i++) {
            hier->dataAccess(GuestPhys(rng.below(1 << 18) * 8), rng.chance(1, 3),
                             SimCycle(100 + (U64)i * 7));
        }
        hier->drainBackend(SimCycle(1 << 20));
        EXPECT_GT(stats.get("c0/mem/accesses"), 0ULL) << (int)kind;
        switch (kind) {
        case MemBackendKind::Fixed:
            EXPECT_GT(stats.get("c0/membackend/reads"), 0ULL);
            break;
        case MemBackendKind::BankedDram:
            EXPECT_GT(stats.get("c0/membackend/row_hits")
                          + stats.get("c0/membackend/row_conflicts"),
                      0ULL);
            break;
        case MemBackendKind::Hybrid:
            EXPECT_GT(stats.get("c0/membackend/pcm_reads"), 0ULL);
            break;
        }
        EXPECT_EQ(hier->memBackend().audit().deferred_depth, 0u);
    }
}

}  // namespace
}  // namespace ptl
