/**
 * @file
 * The pipeline invariant checker (the correctness-tooling layer).
 *
 * PTLsim's credibility rests on cycle-accurate correctness: the paper
 * validates the out-of-order core against native K8 silicon and ships
 * a sequential reference core precisely so the detailed model can be
 * cross-checked (Section 5). This subsystem turns the scattered
 * ptl_assert()s into a systematic, per-cycle audit of the
 * microarchitectural bookkeeping that every future optimisation PR is
 * regression-tested against:
 *
 *  - ROB age ordering: sequence numbers strictly increase from head to
 *    tail. The ROB, LDQ and STQ are Rings (core/ooo/ring.h) that store
 *    only a head and a count, so there are no cursors to reconcile;
 *  - LSQ load/store consistency against the ROB: every live entry
 *    names a live ROB entry of its kind that names it back with the
 *    same sequence number, and ages rise from head to tail;
 *  - physical register file leak and double-free detection (free-list
 *    duplicates, freed-but-mapped registers, allocated-but-unreachable
 *    registers, architectural refcount conservation);
 *  - issue-queue/scoreboard consistency: every queued uop references a
 *    live, un-issued ROB entry whose destination register is not yet
 *    marked ready, its wakeup state agrees with the PRF, and each
 *    queue's occupancy counter equals the population of its live mask;
 *  - no lost memory wakeup: every parked load is still blocked by an
 *    older store of its thread with an unknown address and holds its
 *    issue-queue slot asleep, and only parked loads sleep;
 *  - MESI/MOESI directory legality across coherence peers (at most one
 *    M/E holder, M/E exclude sharers, at most one owner);
 *  - memory-backend timing bookkeeping (deferred-write queue depth
 *    within its configured capacity, bank busy stamps never saturated
 *    to CYCLE_NEVER, and nextDue() only armed while deferred work is
 *    actually pending).
 *
 * Every violation is reported through a structured VerifyStats counter
 * group; the checker either panic()s on the first violation (embedded
 * production mode) or counts and warns once per violation site (test
 * mode, used by tests/test_verify.cc to prove deliberate corruptions
 * are detected).
 *
 * The per-cycle hook in OooCore::cycle() is runtime-gated: a core
 * audits itself only when an auditor is attached (the `verify` config
 * flag or PTLSIM_VERIFY), so a run without one pays a null test.
 */

#ifndef PTLSIM_VERIFY_VERIFY_H_
#define PTLSIM_VERIFY_VERIFY_H_

#include <array>
#include <memory>
#include <string>

#include "core/coreapi.h"
#include "lib/bitops.h"
#include "mem/pagetable.h"
#include "stats/stats.h"

namespace ptl {

/** Structured counter group: one counter per invariant family. */
struct VerifyStats
{
    VerifyStats(StatsTree &stats, const std::string &prefix);

    Counter &checks;          ///< checker passes executed
    Counter &violations;      ///< total violations (all families)
    Counter &rob_order;       ///< ROB age-ordering breaks
    Counter &lsq_state;       ///< LSQ-to-ROB back-reference breaks
    Counter &lsq_age;         ///< LSQ age-ordering breaks vs. the ROB
    Counter &prf_leak;        ///< allocated-but-unreachable registers
    Counter &prf_double_free; ///< free-list duplicates / freed-but-live
    Counter &iq_state;        ///< issue-queue / scoreboard breaks
    Counter &interlock;       ///< interlocks held by no live LSQ entry
    Counter &mesi;            ///< coherence directory legality breaks
    Counter &membackend;      ///< memory-backend bookkeeping breaks
};

/**
 * The invariant checker. One instance audits one OooCore (and,
 * optionally, the machine's coherence directory). Stateless between
 * calls apart from its counters.
 */
class InvariantChecker final : public CoreAuditor
{
  public:
    /** What to do when a violation is found. */
    enum class Action
    {
        Panic,  ///< cycle-stamped panic on the first violation
        Count,  ///< bump counters, warn once per violation site
    };

    InvariantChecker(StatsTree &stats, const std::string &prefix,
                     Action action = Action::Panic);

    /**
     * Audit one core's ROB/LSQ/PRF/issue-queue state. Returns the
     * number of violations found this pass (always 0 in Panic mode,
     * which does not return on a violation).
     */
    int checkCore(const OooCore &core, SimCycle now) override;

    /** Audit the MOESI directory across all registered peers. */
    int checkCoherence(const CoherenceController &coherence,
                       SimCycle now) override;

    VerifyStats &counters() { return vstats; }

  private:
    VerifyStats vstats;
    Action action;
};

/** True when the config or the PTLSIM_VERIFY environment variable
 *  asks for verification: the one gate for the per-cycle auditor and
 *  the translation-cache shadow walk. */
bool verifyRequested(const SimConfig &cfg);

/**
 * Standard wiring used by core assembly (sys/coreset.h): build a
 * Panic-mode InvariantChecker when the config (or the PTLSIM_VERIFY
 * environment variable) opts in, nullptr otherwise. The result is
 * handed to CoreModel::attachAuditor(), which accepts nullptr.
 */
std::unique_ptr<CoreAuditor> makeVerifyAuditor(const SimConfig &cfg,
                                               StatsTree &stats,
                                               const std::string &prefix);

// The translation-cache shadow-walk checker verifyCachedTranslation()
// is declared in mem/transcache.h (the layer that owns the cache) and
// implemented in verify/invariant.cc, so the functional memory path
// never includes src/verify headers.

/**
 * Test-only access: deliberately corrupt core state so the test suite
 * can prove each invariant family actually detects its failure mode.
 * Every method returns false if the pipeline currently holds no state
 * suitable for that corruption (caller should cycle and retry).
 */
struct VerifyTestHook
{
    /** Push a ROB slot without filling it. */
    static bool corruptRobCount(OooCore &core, int thread);
    static bool corruptRobOrder(OooCore &core, int thread);
    static bool corruptLsqAge(OooCore &core, int thread);
    /** Push an STQ slot without filling it. */
    static bool corruptLsqRing(OooCore &core, int thread);
    static bool corruptPrfLeak(OooCore &core);
    static bool corruptPrfDoubleFree(OooCore &core);
    static bool corruptIqReady(OooCore &core);
    /** Clear the wakeup-mask bit of a source still waiting on its
     *  producer, so that producer's broadcast would miss the slot. */
    static bool dropWaiterSubscription(OooCore &core);
    /** Mark the one older store with an unknown address of a parked
     *  load of `thread` as resolved, without waking the load. */
    static bool resolveStoreWithoutWake(OooCore &core, int thread);
    /** Acquire an interlock for `thread` that no LSQ entry holds. */
    static bool orphanInterlock(OooCore &core, int thread);
    /** Flip one bit of the data of the oldest executed store in the
     *  STQ, so its commit writes what the reference did not. */
    static bool skewStoreData(OooCore &core, int thread);
    /** Set the SMT rename and commit rotors to `value`, the state a
     *  free-running rotor would reach after `value` cycles. */
    static void setSmtRotors(OooCore &core, int value);
    /** The SMT fetch, rename and commit rotors. */
    static std::array<int, 3> smtRotors(const OooCore &core);
};

}  // namespace ptl

#endif  // PTLSIM_VERIFY_VERIFY_H_
