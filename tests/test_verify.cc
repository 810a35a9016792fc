/**
 * Tests for the correctness-tooling layer (src/verify): prove that the
 * invariant checker detects deliberately injected corruption in every
 * structure family it audits (ROB, LSQ, PRF, issue queues/scoreboard,
 * interlocks, MESI directory), and that the lockstep commit checker panics on an
 * architectural divergence from the functional reference.
 */

#include <gtest/gtest.h>

#include "core/ooo/ooocore.h"
#include "guest_harness.h"
#include "mem/coherence.h"
#include "verify/verify.h"

namespace ptl {
namespace {

SimConfig
verifyConfig()
{
    SimConfig cfg = testConfig(SimConfig::preset("default"));
    cfg.core = "ooo";
    return cfg;
}

/** A store/load churn loop that keeps the ROB, both LSQ halves and the
 *  issue queues populated for thousands of cycles. */
void
churnProgram(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rcx, 0);
    Label top = a.label();
    a.mov(R::rax, R::rcx);
    a.imul(R::rax, R::rax, 2654435761);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.and_(R::rax, 255);
    a.add(R::rdx, Mem::idx(R::rbx, R::rax, 8));
    a.inc(R::rcx);
    a.cmp(R::rcx, 2048);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Each store's address waits on a divide and the load after it reads
 *  elsewhere: without load hoisting, every load parks behind its
 *  store until the store's address resolves. */
void
parkProgram(Assembler &a)
{
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rsi, 3);
    a.mov(R::rcx, 256);
    Label top = a.label();
    a.mov(R::rax, R::rcx);
    a.mov(R::rdx, 0);
    a.div(R::rsi);
    a.mov(Mem::idx(R::rbx, R::rax, 8), R::rcx);
    a.add(R::r8, Mem::idx(R::rbx, R::rcx, 8, 0x1000));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

/** Harness: an OoO core mid-flight through a program (by default the
 *  churn program). */
class VerifyRig
{
  public:
    explicit VerifyRig(SimConfig cfg = verifyConfig(),
                       void (*program)(Assembler &) = churnProgram)
        : runner(cfg)
    {
        mapTestLayout(runner);
        Assembler a(CODE_BASE);
        program(a);
        runner.load(a);
        runner.finalizeCores();
    }

    OooCore &core() { return static_cast<OooCore &>(runner.core(0)); }

    /**
     * Cycle the pipeline, offering `corrupt` a chance after each cycle
     * until it reports it found state to damage. Returns false if the
     * program drained without the corruption ever applying.
     */
    template <typename Fn>
    bool
    corruptMidFlight(Fn &&corrupt, U64 max_cycles = 200000)
    {
        for (; now.raw() < max_cycles && !runner.core(0).allIdle();
             ++now) {
            runner.core(0).cycle(now);
            if (corrupt(core()))
                return true;
        }
        return false;
    }

    /** Audit in Count mode and return the violation count. */
    int
    audit(InvariantChecker &chk)
    {
        return chk.checkCore(core(), now);
    }

    BareMachine runner;
    SimCycle now;
};

TEST(VerifyTest, CleanPipelinePassesEveryCycleAudit)
{
    VerifyRig rig;
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    int violations = 0;
    for (; rig.now.raw() < 200000 && !rig.runner.core(0).allIdle();
         ++rig.now) {
        rig.runner.core(0).cycle(rig.now);
        if (rig.now.raw() % 16 == 0)
            violations += rig.audit(chk);
    }
    EXPECT_TRUE(rig.runner.core(0).allIdle()) << "program never drained";
    EXPECT_EQ(violations, 0);
    EXPECT_GT(chk.counters().checks.value(), 0u);
    EXPECT_EQ(chk.counters().violations.value(), 0u);
}

TEST(VerifyTest, DetectsRobCountCorruption)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptRobCount(c, 0);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().rob_order.value(), 0u);
    // The unfilled slot is caught on its own, not only through the
    // ROB count: its state is neither InQueue nor Done.
    EXPECT_GT(chk.counters().iq_state.value(), 0u);
}

TEST(VerifyTest, DetectsRobAgeOrderCorruption)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptRobOrder(c, 0);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().rob_order.value(), 0u);
}

TEST(VerifyTest, DetectsLsqAgeCorruption)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptLsqAge(c, 0);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().lsq_age.value()
                  + chk.counters().lsq_state.value(),
              0u);
}

TEST(VerifyTest, DetectsLsqRingCorruption)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptLsqRing(c, 0);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().lsq_state.value()
                  + chk.counters().lsq_age.value(),
              0u);
}

TEST(VerifyTest, DetectsPhysicalRegisterLeak)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptPrfLeak(c);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().prf_leak.value(), 0u);
}

TEST(VerifyTest, DetectsPhysicalRegisterDoubleFree)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptPrfDoubleFree(c);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().prf_double_free.value(), 0u);
}

TEST(VerifyTest, DetectsIssueQueueScoreboardBreak)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptIqReady(c);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().iq_state.value(), 0u);
}

TEST(VerifyTest, DetectsMissingWakeupSubscription)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::dropWaiterSubscription(c);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().iq_state.value(), 0u);
}

TEST(VerifyTest, DetectsLostMemoryWakeup)
{
    // Every cycle audits clean until a store's address is marked known
    // without waking the load parked behind it.
    SimConfig cfg = verifyConfig();
    cfg.load_hoisting = false;
    VerifyRig rig(cfg, parkProgram);
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    int clean = 0;
    ASSERT_TRUE(rig.corruptMidFlight([&](OooCore &c) {
        clean += rig.audit(chk);
        return VerifyTestHook::resolveStoreWithoutWake(c, 0);
    }));
    EXPECT_EQ(clean, 0);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().lsq_state.value(), 0u);
}

TEST(VerifyTest, DetectsOrphanedInterlock)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::orphanInterlock(c, 0);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Count);
    EXPECT_GT(rig.audit(chk), 0);
    EXPECT_GT(chk.counters().interlock.value(), 0u);
}

TEST(VerifyTest, DetectsIllegalMesiDirectoryState)
{
    StatsTree stats;
    CoherenceController coherence(CoherenceKind::Moesi, 10, stats);

    // A legal directory audits clean.
    InvariantChecker chk(stats, "verify/", InvariantChecker::Action::Count);
    coherence.corruptStateForTest(0, GuestPhys(0x1000), LineState::Modified);
    EXPECT_EQ(chk.checkCoherence(coherence, SimCycle(0)), 0);

    // Two Modified holders of one line is never legal.
    coherence.corruptStateForTest(1, GuestPhys(0x1000), LineState::Modified);
    EXPECT_GT(chk.checkCoherence(coherence, SimCycle(0)), 0);
    EXPECT_GT(chk.counters().mesi.value(), 0u);

    // Exclusive coexisting with a sharer is never legal either.
    CoherenceController c2(CoherenceKind::Moesi, 10, stats);
    c2.corruptStateForTest(0, GuestPhys(0x2000), LineState::Exclusive);
    c2.corruptStateForTest(1, GuestPhys(0x2000), LineState::Shared);
    EXPECT_GT(chk.checkCoherence(c2, SimCycle(0)), 0);
}

TEST(VerifyTest, PanicModeDiesOnCorruption)
{
    VerifyRig rig;
    ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
        return VerifyTestHook::corruptPrfDoubleFree(c);
    }));
    InvariantChecker chk(rig.runner.stats(), "verify/",
                         InvariantChecker::Action::Panic);
    EXPECT_DEATH(chk.checkCore(rig.core(), rig.now), "double.free|free list");
}

TEST(VerifyTest, LockstepCatchesStoreDataDivergence)
{
    SimConfig cfg = verifyConfig();
    cfg.commit_checker = true;
    EXPECT_DEATH(
        {
            VerifyRig rig(cfg);
            // Flip one bit of an executed store's data; its commit must
            // detect that the pipeline and the reference no longer
            // agree.
            ASSERT_TRUE(rig.corruptMidFlight([](OooCore &c) {
                return VerifyTestHook::skewStoreData(c, 0);
            }));
            for (int i = 0; i < 10000 && !rig.runner.core(0).allIdle(); i++)
                rig.runner.core(0).cycle(++rig.now);
        },
        "lockstep divergence");
}

}  // namespace
}  // namespace ptl
