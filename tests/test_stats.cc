/** Tests for the PTLstats-style statistics tree and snapshot facility. */

#include <gtest/gtest.h>

#include "stats/stats.h"

namespace ptl {
namespace {

TEST(Stats, CounterBasics)
{
    StatsTree t;
    Counter &c = t.counter("commit/insns");
    c += 5;
    ++c;
    c.add(4);
    EXPECT_EQ(t.get("commit/insns"), 10ULL);
    EXPECT_TRUE(t.has("commit/insns"));
    EXPECT_FALSE(t.has("commit/uops"));
    EXPECT_EQ(t.get("commit/uops"), 0ULL);
}

TEST(Stats, SameHandleForSamePath)
{
    StatsTree t;
    Counter &a = t.counter("x");
    Counter &b = t.counter("x");
    EXPECT_EQ(&a, &b);
    a += 3;
    EXPECT_EQ(b.value(), 3ULL);
}

TEST(Stats, SnapshotDeltaSeries)
{
    StatsTree t;
    Counter &c = t.counter("dcache/misses");
    t.takeSnapshot(SimCycle(0));
    c += 10;
    t.takeSnapshot(SimCycle(1000));
    c += 25;
    t.takeSnapshot(SimCycle(2000));
    ASSERT_EQ(t.snapshotCount(), 3u);
    auto series = t.deltaSeries("dcache/misses");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0], 10ULL);
    EXPECT_EQ(series[1], 25ULL);
    EXPECT_EQ(t.snapshot(1).cycle, SimCycle(1000));
}

TEST(Stats, RateSeriesPercent)
{
    StatsTree t;
    Counter &miss = t.counter("dcache/misses");
    Counter &acc = t.counter("dcache/accesses");
    t.takeSnapshot(SimCycle(0));
    miss += 2;
    acc += 100;
    t.takeSnapshot(SimCycle(1));
    miss += 0;
    acc += 50;
    t.takeSnapshot(SimCycle(2));
    auto rate = t.rateSeries("dcache/misses", "dcache/accesses");
    ASSERT_EQ(rate.size(), 2u);
    EXPECT_DOUBLE_EQ(rate[0], 2.0);
    EXPECT_DOUBLE_EQ(rate[1], 0.0);
}

TEST(Stats, RateSeriesZeroDenominator)
{
    StatsTree t;
    t.counter("n");
    t.counter("d");
    t.takeSnapshot(SimCycle(0));
    t.counter("n") += 5;
    t.takeSnapshot(SimCycle(1));
    auto rate = t.rateSeries("n", "d");
    ASSERT_EQ(rate.size(), 1u);
    EXPECT_DOUBLE_EQ(rate[0], 0.0);
}

TEST(Stats, CounterRegisteredAfterSnapshot)
{
    StatsTree t;
    t.counter("early") += 1;
    t.takeSnapshot(SimCycle(0));
    t.counter("late") += 7;
    t.takeSnapshot(SimCycle(1));
    auto series = t.deltaSeries("late");
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0], 7ULL);
}

TEST(Stats, RenderTableFiltersByPrefix)
{
    StatsTree t;
    t.counter("a/x") += 1;
    t.counter("a/y") += 2;
    t.counter("b/z") += 3;
    std::string table = t.renderTable("a/");
    EXPECT_NE(table.find("a/x"), std::string::npos);
    EXPECT_NE(table.find("a/y"), std::string::npos);
    EXPECT_EQ(table.find("b/z"), std::string::npos);
}

TEST(Stats, ResetClearsEverything)
{
    StatsTree t;
    t.counter("c") += 9;
    t.takeSnapshot(SimCycle(0));
    t.reset();
    EXPECT_EQ(t.get("c"), 0ULL);
    EXPECT_EQ(t.snapshotCount(), 0u);
}

TEST(Stats, HandleStabilityUnderGrowth)
{
    StatsTree t;
    Counter &first = t.counter("first");
    for (int i = 0; i < 1000; i++)
        t.counter(std::string("c").append(std::to_string(i)));
    first += 42;
    EXPECT_EQ(t.get("first"), 42ULL);
}

}  // namespace
}  // namespace ptl
