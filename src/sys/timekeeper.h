/**
 * @file
 * Virtual time (Section 4.2, "The Nature of Time").
 *
 * The simulator owns the flow of time: every timer, TSC read and device
 * latency is keyed to the simulated cycle number, never to host wall
 * clock. Because cycle-accurate simulation runs thousands of times
 * slower than silicon, PTLsim virtualizes the timestamp counter and
 * subtracts a hidden delta across native<->simulation transitions so
 * the guest can never observe the gap (Section 4.1). TimeKeeper holds
 * the master cycle counter and that per-domain TSC offset.
 *
 * Time is strongly typed (lib/simtime.h): the master counter is a
 * SimCycle, the hidden TSC gap is a CycleDelta, and the wall-time
 * conversion helpers return CycleDelta — so a caller can arm
 * `now + usToCycles(period)` but cannot accidentally treat a period
 * as an absolute stamp.
 */

#ifndef PTLSIM_SYS_TIMEKEEPER_H_
#define PTLSIM_SYS_TIMEKEEPER_H_

#include "lib/archive.h"
#include "lib/simtime.h"

namespace ptl {

class TimeKeeper
{
  public:
    explicit TimeKeeper(U64 core_freq_hz) : freq(core_freq_hz) {}

    SimCycle cycle() const { return now; }
    void advance(CycleDelta d) { now += d; }
    void tick() { ++now; }

    U64 frequency() const { return freq; }

    /** Convert guest-visible durations to cycles. */
    CycleDelta
    usToCycles(U64 us) const
    {
        return cycles(us * freq / 1'000'000ULL);
    }
    U64
    cyclesToNs(CycleDelta d) const
    {
        return d.raw() * 1'000'000'000ULL / freq;
    }

    /**
     * Guest-visible TSC. The hidden offset absorbs any cycles that
     * should be invisible to the guest (e.g. time "lost" across a mode
     * transition in a real PTLsim/X deployment). The TSC itself is an
     * architectural register value, hence raw.
     */
    U64 readTsc() const { return (now - hidden).raw(); }

    /** Hide `d` cycles of elapsed time from the guest's clocks. */
    void hideGap(CycleDelta d) { hidden += d; }
    CycleDelta hiddenCycles() const { return hidden; }

    /** Checkpoint: the master counter and the hidden TSC gap. A load
     *  may roll time backwards; absolute-cycle state elsewhere is
     *  re-based by the restore that follows it. */
    void visit(Archive &ar) { ar(now, hidden); }

  private:
    const U64 freq;
    SimCycle now;
    CycleDelta hidden;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_TIMEKEEPER_H_
