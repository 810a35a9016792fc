/**
 * Strong cycle types (lib/simtime.h): arithmetic semantics, the
 * saturating CYCLE_NEVER sentinel, compile-time rejection of the
 * nonsense operations the types exist to forbid, and a machine-level
 * checkpoint round-trip of the typed time fields.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "lib/simtime.h"
#include "sys/checkpoint.h"
#include "sys/machine.h"

namespace ptl {
namespace {

// ---------------------------------------------------------------------
// Compile-time contract. Each assert here is an operation that once
// compiled fine on raw U64 and produced a wrong answer at runtime.
// ---------------------------------------------------------------------

// Stamps and durations are register-sized and compile away.
static_assert(sizeof(SimCycle) == sizeof(U64));
static_assert(sizeof(CycleDelta) == sizeof(U64));
static_assert(std::is_trivially_copyable_v<SimCycle>);
static_assert(std::is_trivially_copyable_v<CycleDelta>);

// No implicit conversions in either direction.
static_assert(!std::is_convertible_v<U64, SimCycle>);
static_assert(!std::is_convertible_v<SimCycle, U64>);
static_assert(!std::is_convertible_v<U64, CycleDelta>);
static_assert(!std::is_convertible_v<CycleDelta, U64>);
static_assert(!std::is_convertible_v<SimCycle, CycleDelta>);
static_assert(!std::is_convertible_v<CycleDelta, SimCycle>);

template <typename A, typename B>
constexpr bool can_add = requires(A a, B b) { a + b; };
template <typename A, typename B>
constexpr bool can_sub = requires(A a, B b) { a - b; };
template <typename A, typename B>
constexpr bool can_less = requires(A a, B b) { a < b; };
template <typename R, typename A, typename B>
constexpr bool adds_to = requires(A a, B b) {
    { a + b } -> std::same_as<R>;
};
template <typename R, typename A, typename B>
constexpr bool subs_to = requires(A a, B b) {
    { a - b } -> std::same_as<R>;
};

// Adding two absolute stamps is meaningless.
static_assert(!can_add<SimCycle, SimCycle>);
// A duration minus a stamp is meaningless.
static_assert(!can_sub<CycleDelta, SimCycle>);
// Raw integers cannot mix in without an explicit construction.
static_assert(!can_add<SimCycle, U64>);
static_assert(!can_sub<SimCycle, U64>);
static_assert(!can_add<CycleDelta, U64>);
// Comparisons only work within a kind.
static_assert(!can_less<SimCycle, CycleDelta>);
static_assert(!can_less<SimCycle, U64>);
// The legal algebra, for symmetry.
static_assert(adds_to<SimCycle, SimCycle, CycleDelta>);
static_assert(subs_to<SimCycle, SimCycle, CycleDelta>);
static_assert(subs_to<CycleDelta, SimCycle, SimCycle>);
static_assert(requires(CycleDelta d, U64 n) {
    { d * n } -> std::same_as<CycleDelta>;
});

TEST(SimTime, DeltaArithmetic)
{
    CycleDelta d = cycles(100);
    EXPECT_EQ(d.raw(), 100ULL);
    EXPECT_EQ((d + cycles(20)).raw(), 120ULL);
    EXPECT_EQ((d - cycles(30)).raw(), 70ULL);
    EXPECT_EQ((d * 3).raw(), 300ULL);
    EXPECT_EQ((3 * d).raw(), 300ULL);
    EXPECT_EQ((d / 4).raw(), 25ULL);
    d += cycles(1);
    EXPECT_EQ(d, cycles(101));
    d -= cycles(100);
    EXPECT_EQ(d, cycles(1));
    EXPECT_LT(cycles(1), cycles(2));
}

TEST(SimTime, StampArithmetic)
{
    SimCycle t(1000);
    EXPECT_EQ(t.raw(), 1000ULL);
    SimCycle deadline = t + cycles(50);
    EXPECT_EQ(deadline.raw(), 1050ULL);
    EXPECT_EQ(deadline - t, cycles(50));
    EXPECT_EQ((deadline - cycles(50)), t);
    t += cycles(7);
    EXPECT_EQ(t.raw(), 1007ULL);
    ++t;
    EXPECT_EQ(t.raw(), 1008ULL);
    EXPECT_LT(t, deadline);
    EXPECT_EQ(SimCycle(), SimCycle(0));
}

/** The bug class the sentinel exists to kill: `~0ULL + latency` wraps
 *  to a small stamp that compares "already ready". CYCLE_NEVER
 *  saturates instead. */
TEST(SimTime, NeverSentinelSaturates)
{
    EXPECT_TRUE(CYCLE_NEVER.never());
    EXPECT_FALSE(SimCycle(0).never());
    EXPECT_EQ(CYCLE_NEVER + cycles(3), CYCLE_NEVER);
    EXPECT_EQ(CYCLE_NEVER + cycles(~U64(0) / 2), CYCLE_NEVER);
    SimCycle t = CYCLE_NEVER;
    t += cycles(1'000'000);
    EXPECT_TRUE(t.never());
    // Every real stamp sorts before the sentinel.
    EXPECT_LT(SimCycle(~U64(0) - 1), CYCLE_NEVER);
}

// ---------------------------------------------------------------------
// Machine-level round trip of the typed time fields.
// ---------------------------------------------------------------------

TEST(SimTime, CheckpointRoundTripsTypedTimeFields)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.guest_mem_bytes = 16 << 20;
    Machine m(cfg);
    m.vcpu(0).running = false;
    m.finalizeCores();

    // Advance virtual time deterministically via a scheduled event.
    int fired = 0;
    m.eventQueue().schedule(SimCycle(5000), EVPRI_GENERIC,
                            [&](SimCycle now) {
                                fired++;
                                EXPECT_EQ(now, SimCycle(5000));
                            });
    m.run(20'000);
    EXPECT_EQ(fired, 1);
    EXPECT_GE(m.timeKeeper().cycle(), SimCycle(5000));

    // A hidden TSC gap is part of the typed state.
    m.timeKeeper().hideGap(cycles(77));
    const SimCycle at_capture = m.timeKeeper().cycle();
    const SimCycle snapshot_at_capture = m.lastSnapshotCycle();
    EXPECT_EQ(m.timeKeeper().hiddenCycles(), cycles(77));
    MachineCheckpoint ckpt = captureCheckpoint(m);

    // Let time move on, then roll back.
    m.eventQueue().schedule(at_capture + cycles(4000), EVPRI_GENERIC,
                            [](SimCycle) {});
    m.run(10'000);
    EXPECT_GT(m.timeKeeper().cycle(), at_capture);

    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.timeKeeper().cycle(), at_capture);
    EXPECT_EQ(m.timeKeeper().hiddenCycles(), cycles(77));
    EXPECT_EQ(m.timeKeeper().readTsc(),
              (at_capture - cycles(77)).raw());
    EXPECT_EQ(m.lastSnapshotCycle(), snapshot_at_capture);
}

}  // namespace
}  // namespace ptl
