/**
 * Tests for the rsync-over-ssh benchmark workload: the file-set
 * generator, end-to-end runs on both core models (the run
 * self-validates: exit code = count of files whose reconstruction
 * failed checksum verification), phase markers, and the two Table 1
 * trial harnesses.
 */

#include <gtest/gtest.h>

#include "workload/k8preset.h"

namespace ptl {
namespace {

FileSetParams
tinySet()
{
    FileSetParams p;
    p.file_count = 12;
    p.mean_file_bytes = 3000;
    p.max_file_bytes = 8192;
    p.seed = 7;
    return p;
}

TEST(FileSetTest, GeneratorIsDeterministicAndWellFormed)
{
    FileSet a = generateFileSet(tinySet());
    FileSet b = generateFileSet(tinySet());
    EXPECT_EQ(a.old_archive, b.old_archive);
    EXPECT_EQ(a.new_archive, b.new_archive);

    ArchiveView old_view = ArchiveView::parse(a.old_archive);
    ArchiveView new_view = ArchiveView::parse(a.new_archive);
    ASSERT_EQ(old_view.entries.size(), 12u);
    ASSERT_EQ(new_view.entries.size(), 12u);
    int identical = 0;
    for (size_t i = 0; i < old_view.entries.size(); i++) {
        // Same name order; lengths may differ after edits.
        EXPECT_EQ(old_view.entries[i].name_hash,
                  new_view.entries[i].name_hash);
        EXPECT_GT(old_view.entries[i].length, 0u);
        const auto &oe = old_view.entries[i];
        const auto &ne = new_view.entries[i];
        if (oe.length == ne.length
            && std::equal(a.old_archive.begin() + oe.offset,
                          a.old_archive.begin() + oe.offset + oe.length,
                          a.new_archive.begin() + ne.offset))
            identical++;
    }
    // Some files unchanged, some modified.
    EXPECT_GT(identical, 0);
    EXPECT_LT(identical, 12);
}

TEST(FileSetTest, ArchiveOffsetsInBounds)
{
    FileSet fs = generateFileSet(tinySet());
    for (const auto *arch : {&fs.old_archive, &fs.new_archive}) {
        ArchiveView v = ArchiveView::parse(*arch);
        for (const auto &e : v.entries) {
            EXPECT_LE(e.offset + e.length, arch->size());
        }
    }
}

SimConfig
workloadConfig(const char *core)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = core;
    cfg.core_freq_hz = 50'000'000;
    cfg.timer_hz = 1000;
    cfg.snapshot_interval = 200'000;
    cfg.commit_checker = true;
    return cfg;
}

TEST(RsyncBenchTest, EndToEndOnSequentialCore)
{
    RsyncBench bench(workloadConfig("seq"), tinySet());
    RsyncBench::Result r = bench.run(3'000'000'000ULL);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.mismatches, 0ULL)
        << "server-side checksum verification failed";
    // The phase markers arrived in order.
    const auto &marks = bench.machine().hypervisor().markers();
    ASSERT_GE(marks.size(), 7u);
    EXPECT_EQ(marks[0].id, (U64)PHASE_A_STARTUP);
    EXPECT_EQ(marks[1].id, (U64)PHASE_B_SSH_CONNECT);
    EXPECT_EQ(marks[2].id, (U64)PHASE_C_CLIENT_LIST);
    EXPECT_EQ(marks[3].id, (U64)PHASE_D_SERVER_LIST);
    EXPECT_EQ(marks[4].id, (U64)PHASE_E_DELTAS);
    EXPECT_EQ(marks[5].id, (U64)PHASE_F_TRANSMIT);
    EXPECT_EQ(marks[6].id, (U64)PHASE_G_SHUTDOWN);
    for (size_t i = 1; i < marks.size(); i++)
        EXPECT_GE(marks[i].cycle, marks[i - 1].cycle);
    // Kernel and idle time both show up (Figure 2's structure).
    StatsTree &s = bench.machine().stats();
    EXPECT_GT(s.get("external/cycles_in_mode/kernel"), 0ULL);
    EXPECT_GT(s.get("external/cycles_in_mode/idle"), 0ULL);
    EXPECT_GT(s.get("external/cycles_in_mode/user"), 0ULL);
    EXPECT_GT(s.get("net/packets"), 4ULL);
    EXPECT_GT(s.get("disk/reads"), 1ULL);
}

TEST(RsyncBenchTest, EndToEndOnOooCore)
{
    RsyncBench bench(workloadConfig("ooo"), tinySet());
    RsyncBench::Result r = bench.run(3'000'000'000ULL);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.mismatches, 0ULL);
    StatsTree &s = bench.machine().stats();
    EXPECT_GT(s.get("core0/commit/insns"), 100'000ULL);
    EXPECT_GT(s.get("core0/lsq/forwards"), 0ULL);
    EXPECT_GT(s.get("core0/branches/mispredicted"), 0ULL);
}

TEST(RsyncBenchTest, DeltaActuallyCompresses)
{
    // With many unchanged files, far fewer bytes must cross the
    // network than the raw file data (rsync's whole point).
    FileSetParams p = tinySet();
    p.unchanged_pct = 70;
    RsyncBench bench(workloadConfig("seq"), p);
    RsyncBench::Result r = bench.run(3'000'000'000ULL);
    ASSERT_TRUE(r.shutdown);
    ASSERT_EQ(r.mismatches, 0ULL);
    U64 net_bytes = bench.machine().stats().get("net/bytes");
    U64 data_bytes = bench.fileSet().total_new_bytes;
    // Checksums flow server->client and deltas client->server; total
    // network traffic must still be well below 1.5x the corpus (vs
    // ~2x+ for a naive full transfer with checksums).
    EXPECT_LT(net_bytes, data_bytes);
}

TEST(Table1Trials, NativeTrialProfilesK8Structures)
{
    auto native = makeNativeTrial(tinySet());
    RsyncBench::Result r = native->run();
    ASSERT_TRUE(r.shutdown);
    ASSERT_EQ(r.mismatches, 0ULL);
    Table1Metrics m = native->metrics();
    EXPECT_GT(m.insns, 100'000ULL);
    EXPECT_GT(m.uops, m.insns);          // some multi-op instructions
    EXPECT_GT(m.l1d_accesses, m.insns / 5);
    EXPECT_GT(m.branches, 1'000ULL);
    EXPECT_GT(m.cycles, m.insns / 3);    // modeled cycles are sane
}

/**
 * The native trial's simulated counters, exactly. They depend only on
 * the guest, the file set and the functional engine's semantics and
 * profiling calls, never on the host, so any change to them is a
 * change in what the reference column measures.
 */
TEST(Table1Trials, NativeTrialCountersArePinned)
{
    auto native = makeNativeTrial(tinySet());
    RsyncBench::Result r = native->run();
    ASSERT_TRUE(r.shutdown);
    ASSERT_EQ(r.mismatches, 0ULL);
    Table1Metrics m = native->metrics();
    EXPECT_EQ(m.insns, 2'976'819ULL);
    EXPECT_EQ(m.uops, 3'591'344ULL);       // K8 macro-ops
    EXPECT_EQ(m.cycles, 3'788'514ULL);     // modeled cycles
    EXPECT_EQ(m.l1d_accesses, 638'382ULL);
    EXPECT_EQ(m.l1d_misses, 15'466ULL);
    EXPECT_EQ(m.branches, 455'800ULL);
    EXPECT_EQ(m.mispredicts, 2'338ULL);
    EXPECT_EQ(m.dtlb_misses, 422ULL);
}

TEST(Table1Trials, SimAndNativeTrialsAgreeArchitecturally)
{
    // The same guest work executes in both trials: instruction counts
    // must match within the paper's ~2% (ours: near-exactly, modulo
    // scheduling-dependent idle-loop iterations).
    FileSetParams p = tinySet();
    auto native = makeNativeTrial(p);
    ASSERT_EQ(native->run().mismatches, 0ULL);
    auto sim = makeSimTrial(p);
    ASSERT_EQ(sim->run().mismatches, 0ULL);
    Table1Metrics nm = native->metrics();
    Table1Metrics sm = sim->metrics();
    double insn_ratio = (double)sm.insns / (double)nm.insns;
    EXPECT_GT(insn_ratio, 0.9);
    EXPECT_LT(insn_ratio, 1.1);
    // Structural differences of Table 1:
    // PTLsim counts discrete uops; K8 counts fused macro-ops.
    EXPECT_GT((double)sm.uops / (double)nm.uops, 1.05);
    // The full DTLB story (PTLsim's single-level TLB missing far more
    // than K8's 2-level TLB) needs the full-scale footprint; at this
    // tiny scale context-switch flushes dominate both trials, so only
    // sanity-check here (table1_k8_accuracy checks the real shape).
    EXPECT_GT(sm.dtlb_misses * 2, nm.dtlb_misses);
}

}  // namespace
}  // namespace ptl
