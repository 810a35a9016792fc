/**
 * @file
 * Strong types for simulated time.
 *
 * PTLsim keys every timer, device latency and pipeline stamp to the
 * simulated cycle number (Section 4.2, "The Nature of Time"), and the
 * event-kernel refactor exposed how fragile raw `U64` cycle arithmetic
 * is: absolute stamps (an MSHR fill time, a fetch backoff deadline)
 * look exactly like durations (a cache latency, a timer period), so
 * nothing stops code from adding two absolute stamps, comparing a
 * stamp against a duration, or parking a core forever by restoring a
 * stale future stamp across a checkpoint time warp.
 *
 * Two wrapper types make those confusions compile errors:
 *
 *  - SimCycle    an absolute point on the simulated clock;
 *  - CycleDelta  a duration (a number of cycles).
 *
 * The only arithmetic that type-checks is the arithmetic that makes
 * sense:
 *
 *     SimCycle   + CycleDelta -> SimCycle      (arming a deadline)
 *     SimCycle   - CycleDelta -> SimCycle      (rebasing a stamp)
 *     SimCycle   - SimCycle   -> CycleDelta    (elapsed time)
 *     CycleDelta +/- CycleDelta, CycleDelta * n, CycleDelta / n
 *
 * Comparisons only work within a kind. Construction from a raw
 * integer is explicit (`SimCycle(0)`, `cycles(100)`), and the escape
 * hatch back to an integer is the explicit `.raw()` — which is the
 * token the `simlint` simcycle-escape rule keys on at review time.
 *
 * CYCLE_NEVER is the typed "no cycle scheduled / never" sentinel.
 * Adding a duration to CYCLE_NEVER saturates (stays CYCLE_NEVER)
 * instead of silently wrapping to a small cycle number — the exact
 * bug the old `~0ULL` sentinels invited.
 *
 * Everything here is constexpr and trivially copyable: at any
 * optimization level above -O0 the wrappers compile to the same code
 * as raw U64 arithmetic (perfbench's run_s and core.ns_per_cycle
 * would show a wrapper that did not).
 */

#ifndef PTLSIM_LIB_SIMTIME_H_
#define PTLSIM_LIB_SIMTIME_H_

#include <compare>

#include "lib/bitops.h"

namespace ptl {

/** A duration measured in simulated cycles. */
class CycleDelta
{
  public:
    constexpr CycleDelta() = default;
    explicit constexpr CycleDelta(U64 count) : n(count) {}

    /** Escape hatch to a raw count (stats, logging, serialization). */
    constexpr U64 raw() const { return n; }

    constexpr CycleDelta operator+(CycleDelta o) const
    {
        return CycleDelta(n + o.n);
    }
    constexpr CycleDelta operator-(CycleDelta o) const
    {
        return CycleDelta(n - o.n);
    }
    constexpr CycleDelta operator*(U64 k) const { return CycleDelta(n * k); }
    constexpr CycleDelta operator/(U64 k) const { return CycleDelta(n / k); }

    CycleDelta &
    operator+=(CycleDelta o)
    {
        n += o.n;
        return *this;
    }
    CycleDelta &
    operator-=(CycleDelta o)
    {
        n -= o.n;
        return *this;
    }

    constexpr auto operator<=>(const CycleDelta &) const = default;

  private:
    U64 n = 0;
};

/** Duration literal helper: `cycles(100)` reads as what it is. */
constexpr CycleDelta
cycles(U64 n)
{
    return CycleDelta(n);
}

constexpr CycleDelta
operator*(U64 k, CycleDelta d)
{
    return d * k;
}

/** An absolute point on the simulated clock. */
class SimCycle
{
  public:
    /** Raw value of the "never" sentinel (serialization format). */
    static constexpr U64 NEVER_RAW = ~U64(0);

    constexpr SimCycle() = default;
    explicit constexpr SimCycle(U64 stamp) : n(stamp) {}

    /** Escape hatch to a raw stamp (stats, logging, serialization). */
    constexpr U64 raw() const { return n; }

    /** True for the CYCLE_NEVER sentinel. */
    constexpr bool never() const { return n == NEVER_RAW; }

    /**
     * Arm a deadline. Saturates: CYCLE_NEVER plus any duration is
     * still CYCLE_NEVER (no wraparound to cycle 0 and change).
     */
    constexpr SimCycle
    operator+(CycleDelta d) const
    {
        return never() ? *this : SimCycle(n + d.raw());
    }

    /** Rebase a stamp earlier (time-warp math). Not saturating. */
    constexpr SimCycle
    operator-(CycleDelta d) const
    {
        return SimCycle(n - d.raw());
    }

    /** Elapsed time between two points. */
    constexpr CycleDelta
    operator-(SimCycle o) const
    {
        return CycleDelta(n - o.n);
    }

    SimCycle &
    operator+=(CycleDelta d)
    {
        *this = *this + d;
        return *this;
    }

    /** Advance one cycle (the master loop's tick). */
    SimCycle &
    operator++()
    {
        n++;
        return *this;
    }

    constexpr auto operator<=>(const SimCycle &) const = default;

  private:
    U64 n = 0;
};

/**
 * "No cycle scheduled / never": the canonical unreachable point on
 * the simulated clock, shared by the event queue, core sleep hints,
 * MSHR/bank occupancy sentinels and device arming.
 */
inline constexpr SimCycle CYCLE_NEVER{SimCycle::NEVER_RAW};

}  // namespace ptl

#endif  // PTLSIM_LIB_SIMTIME_H_
