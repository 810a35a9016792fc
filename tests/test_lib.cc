/** Tests for lib/: bitops, RNG determinism, configuration presets,
 *  logging. */

#include <gtest/gtest.h>

#include "lib/bitops.h"
#include "lib/config.h"
#include "lib/logging.h"
#include "lib/rng.h"

namespace ptl {
namespace {

TEST(Bitops, BitsAndMasks)
{
    EXPECT_EQ(bits(0xdeadbeefcafebabeULL, 0, 8), 0xbeULL);
    EXPECT_EQ(bits(0xdeadbeefcafebabeULL, 56, 8), 0xdeULL);
    EXPECT_EQ(bits(0xffULL, 4, 64), 0xfULL);
    EXPECT_EQ(lowMask(0), 0ULL);
    EXPECT_EQ(lowMask(1), 1ULL);
    EXPECT_EQ(lowMask(64), ~0ULL);
    EXPECT_EQ(byteMask(1), 0xffULL);
    EXPECT_EQ(byteMask(8), ~0ULL);
    EXPECT_TRUE(bit(0x8000000000000000ULL, 63));
    EXPECT_FALSE(bit(0x8000000000000000ULL, 62));
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 1), 0xffffffffffffff80ULL);
    EXPECT_EQ(signExtend(0x7f, 1), 0x7fULL);
    EXPECT_EQ(signExtend(0x8000, 2), 0xffffffffffff8000ULL);
    EXPECT_EQ(signExtend(0xffffffff, 4), ~0ULL);
    EXPECT_EQ(signExtend(0x7fffffff, 4), 0x7fffffffULL);
    EXPECT_EQ(signExtend(0x123, 8), 0x123ULL);
}

TEST(Bitops, Pow2AndAlign)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(alignUp(4095, 4096), 4096ULL);
    EXPECT_EQ(alignUp(4096, 4096), 4096ULL);
    EXPECT_EQ(alignDown(4097, 4096), 4096ULL);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; i++)
        ASSERT_LT(r.below(17), 17ULL);
}

TEST(Config, K8PresetMatchesPaperSection5)
{
    SimConfig c = SimConfig::preset("k8");
    EXPECT_EQ(c.rob_size, 72);
    EXPECT_EQ(c.ldq_size, 44);
    EXPECT_EQ(c.stq_size, 44);
    EXPECT_EQ(c.int_iq_count, 3);
    EXPECT_EQ(c.int_iq_size, 8);
    EXPECT_EQ(c.fp_iq_size, 36);
    EXPECT_EQ(c.fp_cluster_delay, 2);
    EXPECT_EQ(c.int_prf_size, 128);
    EXPECT_FALSE(c.load_hoisting);
    EXPECT_TRUE(c.enforce_banking);
    EXPECT_EQ(c.l1d.size_bytes, 64u << 10);
    EXPECT_EQ(c.l1d.ways, 2);
    EXPECT_EQ(c.l1d.banks, 8);
    EXPECT_EQ(c.l2.size_bytes, 1u << 20);
    EXPECT_EQ(c.l2.ways, 16);
    EXPECT_EQ(c.l2.latency, 10);
    EXPECT_EQ(c.mem_latency, 112);
    EXPECT_EQ(c.dtlb_entries, 32);
    EXPECT_EQ(c.predictor, PredictorKind::Gshare);
    EXPECT_EQ(c.gshare_entries, 16384);
    EXPECT_NO_FATAL_FAILURE(c.validate());
}

TEST(Config, K8NativeReferenceHasRealK8Tlb)
{
    SimConfig c = SimConfig::preset("k8-native");
    EXPECT_EQ(c.tlb2_entries, 1024);
    EXPECT_EQ(c.tlb2_ways, 4);
    EXPECT_TRUE(c.pde_cache);
    // Everything else identical to the simulated-model preset.
    EXPECT_EQ(c.rob_size, 72);
    EXPECT_EQ(c.dtlb_entries, 32);
}

TEST(Config, ApplyOptionOverrides)
{
    SimConfig c = SimConfig::preset("default");
    c.applyOptions("rob_size=64 predictor=bimodal load_hoisting=off "
                   "l1d_size=32768 coherence=moesi");
    EXPECT_EQ(c.rob_size, 64);
    EXPECT_EQ(c.predictor, PredictorKind::Bimodal);
    EXPECT_FALSE(c.load_hoisting);
    EXPECT_EQ(c.l1d.size_bytes, 32768u);
    EXPECT_EQ(c.coherence, CoherenceKind::Moesi);
}

TEST(Config, NumbersParseStrictly)
{
    SimConfig c = SimConfig::preset("default");
    c.applyOptions("rob_size=0x40 seed=0x10 mem_latency=-5");
    EXPECT_EQ(c.rob_size, 64);
    EXPECT_EQ(c.seed, 16u);
    EXPECT_EQ(c.mem_latency, -5);

    for (const char *bad : {"rob_size=72x", "rob_size=", "seed=abc",
                            "seed=-1", "seed=99999999999999999999",
                            "rob_size=4294967368", "rob_size=-",
                            "rob_size= 7", "l2_size=-1"}) {
        std::string opt(bad);
        std::string name = opt.substr(0, opt.find('='));
        std::string value = opt.substr(opt.find('=') + 1);
        EXPECT_EXIT(
            {
                SimConfig d = SimConfig::preset("default");
                d.applyOption(opt);
            },
            ::testing::ExitedWithCode(1),
            "option " + name + ": bad number '" + value + "'");
    }
    // The memory JSON block goes through the same parser.
    EXPECT_EXIT(
        {
            SimConfig d = SimConfig::preset("default");
            d.applyMemoryJson(R"({"version": "1", "dram": {"banks": "8k"}})");
        },
        ::testing::ExitedWithCode(1), "option dram_banks: bad number '8k'");
}

TEST(Config, CacheGeometryDerivesSets)
{
    CacheParams p{64 << 10, 2, 64, 3, 8, 8};
    EXPECT_EQ(p.sets(), 512);
    CacheParams l2{1 << 20, 16, 64, 10, 16, 1};
    EXPECT_EQ(l2.sets(), 1024);
    CacheParams off{0, 16, 64, 10, 16, 1};
    EXPECT_EQ(off.sets(), 0);
}

std::vector<std::string> &
capturedLog()
{
    static std::vector<std::string> lines;
    return lines;
}

void
captureLog(const std::string &line)
{
    capturedLog().push_back(line);
}

void
warnOnceFromHelper(int n)
{
    ptl_warn_once("helper site %d", n);
}

TEST(Logging, WarnOnceEmitsOncePerCallSite)
{
    capturedLog().clear();
    setLogSink(captureLog);
    for (int i = 0; i < 3; i++) {
        warnOnceFromHelper(i);
        ptl_warn_once("loop site %d", i);
    }
    warn("plain warning");
    setLogSink(nullptr);
    EXPECT_EQ(capturedLog(),
              (std::vector<std::string>{"warn: helper site 0",
                                        "warn: loop site 0",
                                        "warn: plain warning"}));
}

}  // namespace
}  // namespace ptl
