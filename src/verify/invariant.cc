/**
 * @file
 * Implementation of the pipeline invariant checker (see verify.h).
 *
 * The checker deliberately re-derives every occupancy counter and
 * ordering property from first principles (live-mask populations,
 * sequence numbers, reachability from the register maps) instead of
 * trusting the core's own bookkeeping — the entire point is to catch
 * the core's bookkeeping lying.
 */

#include "verify/verify.h"

#include <bit>
#include <cstdarg>
#include <cstdlib>
#include <vector>

#include "core/ooo/ooocore.h"
#include "lib/logging.h"
#include "mem/coherence.h"
#include "mem/hierarchy.h"

namespace ptl {

VerifyStats::VerifyStats(StatsTree &stats, const std::string &prefix)
    : checks(stats.counter(prefix + "verify/checks")),
      violations(stats.counter(prefix + "verify/violations")),
      rob_order(stats.counter(prefix + "verify/rob/order")),
      lsq_state(stats.counter(prefix + "verify/lsq/state")),
      lsq_age(stats.counter(prefix + "verify/lsq/age")),
      prf_leak(stats.counter(prefix + "verify/prf/leak")),
      prf_double_free(stats.counter(prefix + "verify/prf/double_free")),
      iq_state(stats.counter(prefix + "verify/iq/state")),
      interlock(stats.counter(prefix + "verify/interlock")),
      mesi(stats.counter(prefix + "verify/mesi")),
      membackend(stats.counter(prefix + "verify/membackend"))
{
}

void
verifyCachedTranslation(const AddressSpace &aspace, Pfn cr3, GuestVirt va,
                        MemAccess kind, bool user_mode,
                        GuestFault cached_fault, GuestPhys cached_paddr,
                        bool entry_dirty)
{
    PageWalk walk = aspace.walk(cr3, va);
    GuestFault walked_fault = checkWalkAccess(walk, kind, user_mode);
    if (walked_fault != cached_fault)
        panic("transcache shadow walk mismatch at va %llx (cr3 %llx): "
              "cached fault %s vs walked %s",
              (unsigned long long)va.raw(), (unsigned long long)cr3.raw(),
              guestFaultName(cached_fault), guestFaultName(walked_fault));
    if (cached_fault != GuestFault::None)
        return;
    if (walk.paddr(va) != cached_paddr)
        panic("transcache shadow walk mismatch at va %llx (cr3 %llx): "
              "cached paddr %llx vs walked %llx",
              (unsigned long long)va.raw(), (unsigned long long)cr3.raw(),
              (unsigned long long)cached_paddr.raw(),
              (unsigned long long)walk.paddr(va).raw());
    if (entry_dirty && !walk.dirty)
        panic("transcache shadow walk mismatch at va %llx (cr3 %llx): "
              "entry claims leaf D set but the PTE is clean",
              (unsigned long long)va.raw(), (unsigned long long)cr3.raw());
}

InvariantChecker::InvariantChecker(StatsTree &stats,
                                   const std::string &prefix, Action act)
    : vstats(stats, prefix), action(act)
{
}

bool
verifyRequested(const SimConfig &cfg)
{
    return cfg.verify || std::getenv("PTLSIM_VERIFY") != nullptr;
}

std::unique_ptr<CoreAuditor>
makeVerifyAuditor(const SimConfig &cfg, StatsTree &stats,
                  const std::string &prefix)
{
    if (!verifyRequested(cfg))
        return nullptr;
    return std::make_unique<InvariantChecker>(
        stats, prefix, InvariantChecker::Action::Panic);
}

/**
 * Record one violation: bump the family counter and either panic (the
 * embedded production mode) or warn once per callsite (test mode).
 * Each use site gets its own ptl_warn_once flag, so a corrupted
 * structure audited every cycle cannot flood the log.
 */
#define VERIFY_VIOLATION(family, ...)                                     \
    do {                                                                  \
        (family)++;                                                       \
        vstats.violations++;                                              \
        nviol++;                                                          \
        if (action == Action::Panic)                                      \
            panic(__VA_ARGS__);                                           \
        ptl_warn_once(__VA_ARGS__);                                       \
    } while (0)

int
InvariantChecker::checkCore(const OooCore &core, SimCycle now)
{
    int nviol = 0;
    vstats.checks++;
    const unsigned long long cyc = now.raw();

    // ------------------------------------------------------------------
    // Physical register file: global (shared by all threads), so build
    // the reachability picture once up front.
    //
    //  referenced[p]  - p is named by some RAT entry or live ROB entry
    //  arch_refs[p]   - number of architectural RAT slots mapping to p
    //                   (must equal prf[p].refcount exactly)
    // ------------------------------------------------------------------
    size_t nprf = core.prf.size();
    std::vector<bool> referenced(nprf, false);
    std::vector<int> arch_refs(nprf, 0);
    std::vector<bool> in_free(nprf, false);

    for (const std::vector<int> *list : {&core.free_int, &core.free_fp}) {
        bool is_fp_list = (list == &core.free_fp);
        for (int p : *list) {
            if (p < 0 || (size_t)p >= nprf) {
                VERIFY_VIOLATION(vstats.prf_double_free,
                                 "[cycle %llu] verify: free-list entry %d "
                                 "out of range (prf size %zu)",
                                 cyc, p, nprf);
                continue;
            }
            if (in_free[p])
                VERIFY_VIOLATION(vstats.prf_double_free,
                                 "[cycle %llu] verify: phys %d appears "
                                 "twice in the free lists (double free)",
                                 cyc, p);
            in_free[p] = true;
            if (!core.prf[p].in_free_list)
                VERIFY_VIOLATION(vstats.prf_double_free,
                                 "[cycle %llu] verify: phys %d on a free "
                                 "list but in_free_list is false",
                                 cyc, p);
            if (core.prf[p].is_fp != is_fp_list)
                VERIFY_VIOLATION(vstats.prf_double_free,
                                 "[cycle %llu] verify: phys %d on the "
                                 "wrong partition's free list", cyc, p);
        }
    }
    // Conservation: every register is either on a free list or marked
    // allocated; the flag and the list membership must agree.
    for (size_t p = 0; p < nprf; p++) {
        if (core.prf[p].in_free_list && !in_free[p])
            VERIFY_VIOLATION(vstats.prf_leak,
                             "[cycle %llu] verify: phys %zu claims "
                             "in_free_list but is on no free list "
                             "(leaked from the pool)", cyc, p);
    }

    // ------------------------------------------------------------------
    // Per-thread structures.
    // ------------------------------------------------------------------
    for (size_t ti = 0; ti < core.threads.size(); ti++) {
        const OooCore::Thread &t = core.threads[ti];

        // ---- RAT maps root the register reachability graph ----
        for (int r = 0; r < OooCore::RAT_SIZE; r++) {
            for (const S16 *rat : {t.arch_rat, t.spec_rat}) {
                int p = rat[r];
                if (p < 0 || (size_t)p >= nprf) {
                    VERIFY_VIOLATION(vstats.prf_leak,
                                     "[cycle %llu] verify: thread %zu "
                                     "RAT slot %d maps to invalid phys "
                                     "%d", cyc, ti, r, p);
                    continue;
                }
                referenced[p] = true;
                if (in_free[p])
                    VERIFY_VIOLATION(vstats.prf_double_free,
                                     "[cycle %llu] verify: thread %zu "
                                     "RAT slot %d maps to freed phys %d "
                                     "(use after free)", cyc, ti, r, p);
                if (rat == t.arch_rat)
                    arch_refs[p]++;
            }
        }

        // ---- walk the live window: age order, dests ----
        U64 prev_seq = 0;
        for (int n = 0; n < t.rob.size(); n++) {
            int idx = t.rob.slotAt(n);
            const OooCore::RobEntry &e = t.rob[idx];
            if (n > 0 && e.seq <= prev_seq)
                VERIFY_VIOLATION(vstats.rob_order,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "age order broken at slot %d (seq %llu "
                                 "after %llu)", cyc, ti, idx,
                                 (unsigned long long)e.seq,
                                 (unsigned long long)prev_seq);
            prev_seq = e.seq;

            if (e.phys >= 0) {
                if ((size_t)e.phys >= nprf) {
                    VERIFY_VIOLATION(vstats.prf_leak,
                                     "[cycle %llu] verify: thread %zu "
                                     "ROB slot %d dest phys %d out of "
                                     "range", cyc, ti, idx, e.phys);
                } else {
                    if (in_free[e.phys])
                        VERIFY_VIOLATION(
                            vstats.prf_double_free,
                            "[cycle %llu] verify: thread %zu ROB slot "
                            "%d's dest phys %d is on a free list "
                            "(use after free)", cyc, ti, idx, e.phys);
                    referenced[e.phys] = true;
                }
            }
            for (int s = 0; s < 4; s++) {
                int p = e.src[s];
                if (p >= 0 && (size_t)p < nprf)
                    referenced[p] = true;
            }
        }

        // ---- LSQ rings vs. the ROB ----
        // Each queue is a program-order ring: its live entries have
        // rising sequence numbers, and each mirrors its ROB entry.
        for (const Ring<OooCore::LsqEntry> *q : {&t.ldq, &t.stq}) {
            bool is_ldq = (q == &t.ldq);
            const char *name = is_ldq ? "LDQ" : "STQ";
            U64 prev_lsq_seq = 0;
            for (int age = 0; age < q->size(); age++) {
                int li = q->slotAt(age);
                const OooCore::LsqEntry &l = (*q)[li];
                if (age > 0 && l.seq <= prev_lsq_seq)
                    VERIFY_VIOLATION(vstats.lsq_age,
                                     "[cycle %llu] verify: thread %zu %s "
                                     "ring order broken at slot %d (seq "
                                     "%llu after %llu)", cyc, ti, name,
                                     li, (unsigned long long)l.seq,
                                     (unsigned long long)prev_lsq_seq);
                prev_lsq_seq = l.seq;
                // Back-reference into the live ROB window.
                if (!t.rob.live(l.rob)) {
                    VERIFY_VIOLATION(vstats.lsq_state,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d references dead ROB "
                                     "slot %d", cyc, ti, name, li, l.rob);
                    continue;
                }
                const OooCore::RobEntry &e = t.rob[l.rob];
                bool kind_ok = is_ldq ? e.uop.isLoad() : e.uop.isStore();
                if (!kind_ok || e.lsq != li)
                    VERIFY_VIOLATION(vstats.lsq_state,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d and ROB slot %d "
                                     "back-references disagree "
                                     "(rob.lsq=%d)", cyc, ti, name, li,
                                     l.rob, e.lsq);
                // Age consistency: the queue entry carries the same
                // program-order sequence number its ROB entry was
                // renamed with.
                else if (l.seq != e.seq)
                    VERIFY_VIOLATION(vstats.lsq_age,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d seq %llu disagrees "
                                     "with ROB slot %d seq %llu",
                                     cyc, ti, name, li,
                                     (unsigned long long)l.seq, l.rob,
                                     (unsigned long long)e.seq);
            }
        }

        // ---- parked loads: no lost memory wakeup ----
        // A parked load's issue-queue slot sleeps at CYCLE_NEVER until
        // a store's resolve wakes it, so it must still be blocked: an
        // older store of its thread has an unknown address. It must
        // still be in its queue (the queue walk below checks that its
        // slot sleeps), and the per-thread count that guards the wake
        // must match.
        int parked = 0;
        for (int age = 0; age < t.ldq.size(); age++) {
            int li = t.ldq.slotAt(age);
            const OooCore::LsqEntry &l = t.ldq[li];
            if (!l.parked)
                continue;
            parked++;
            bool blocked = false;
            for (int sa = 0; sa < t.stq.size(); sa++) {
                const OooCore::LsqEntry &s = t.stq[t.stq.slotAt(sa)];
                blocked |= s.seq < l.seq && !s.addr_known;
            }
            if (!blocked)
                VERIFY_VIOLATION(vstats.lsq_state,
                                 "[cycle %llu] verify: thread %zu LDQ "
                                 "slot %d is parked but no store blocks "
                                 "it (lost memory wakeup)", cyc, ti, li);
            if (!t.rob.live(l.rob)
                || t.rob[l.rob].state != OooCore::RobState::InQueue)
                VERIFY_VIOLATION(vstats.lsq_state,
                                 "[cycle %llu] verify: thread %zu LDQ "
                                 "slot %d is parked but ROB slot %d is "
                                 "not in an issue queue", cyc, ti, li,
                                 l.rob);
        }
        if (parked != t.parked_loads)
            VERIFY_VIOLATION(vstats.lsq_state,
                             "[cycle %llu] verify: thread %zu has %d "
                             "parked loads but counts %d", cyc, ti,
                             parked, t.parked_loads);
    }

    // ------------------------------------------------------------------
    // Issue queues vs. the ROB scoreboard.
    // ------------------------------------------------------------------
    // How many valid queue slots reference each (thread, rob) pair;
    // used to prove InQueue entries sit in exactly one slot.
    std::vector<std::vector<int>> queued(core.threads.size());
    for (size_t ti = 0; ti < core.threads.size(); ti++)
        queued[ti].assign((size_t)core.threads[ti].rob.capacity(), 0);

    for (size_t qi = 0; qi < core.queues.size(); qi++) {
        const OooCore::IssueQueue &iq = core.queues[qi];
        if (std::popcount(iq.live) != iq.used)
            VERIFY_VIOLATION(vstats.iq_state,
                             "[cycle %llu] verify: iq[%zu] has %d live "
                             "slots but the occupancy counter says %d",
                             cyc, qi, std::popcount(iq.live), iq.used);
        for (U64 m = iq.live; m; m &= m - 1) {
            size_t si = (size_t)std::countr_zero(m);
            const OooCore::IqEntry &slot = iq.slots[si];
            if (slot.thread < 0
                || (size_t)slot.thread >= core.threads.size()) {
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "names invalid thread %d", cyc, qi, si,
                                 slot.thread);
                continue;
            }
            const OooCore::Thread &t = core.threads[slot.thread];
            if (!t.rob.live(slot.rob)) {
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "references dead ROB slot %d", cyc, qi,
                                 si, slot.rob);
                continue;
            }
            queued[slot.thread][slot.rob]++;
            const OooCore::RobEntry &e = t.rob[slot.rob];
            if (e.seq != slot.seq)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "seq %llu disagrees with ROB slot %d "
                                 "seq %llu", cyc, qi, si,
                                 (unsigned long long)slot.seq, slot.rob,
                                 (unsigned long long)e.seq);
            // Wakeup bitmask coherence: each slot caches its source
            // physical tags at dispatch and accumulates ready bits
            // from broadcasts; the tags must mirror the ROB's renamed
            // sources, an absent source must have its bit pre-set,
            // and a set bit for a real source means the PRF agrees
            // the producer completed.
            for (int s = 0; s < 4; s++) {
                if ((int)slot.src[s] != e.src[s])
                    VERIFY_VIOLATION(vstats.iq_state,
                                     "[cycle %llu] verify: iq[%zu] slot "
                                     "%zu cached src%d tag %d disagrees "
                                     "with ROB slot %d src %d", cyc, qi,
                                     si, s, (int)slot.src[s], slot.rob,
                                     e.src[s]);
                bool bit = ((slot.ready_mask >> s) & 1) != 0;
                if (e.src[s] < 0 && !bit)
                    VERIFY_VIOLATION(vstats.iq_state,
                                     "[cycle %llu] verify: iq[%zu] slot "
                                     "%zu has no src%d but its ready "
                                     "bit is clear", cyc, qi, si, s);
                if (bit && e.src[s] >= 0 && (size_t)e.src[s] < nprf
                    && !core.prf[e.src[s]].ready)
                    VERIFY_VIOLATION(vstats.iq_state,
                                     "[cycle %llu] verify: iq[%zu] slot "
                                     "%zu src%d ready bit set but phys "
                                     "%d has not completed", cyc, qi,
                                     si, s, e.src[s]);
                if (!bit && e.src[s] >= 0 && (size_t)e.src[s] < nprf) {
                    // Missed-wakeup detector: every site that marks a
                    // physreg ready broadcasts in the same statement,
                    // so a completed source with a clear bit means a
                    // broadcast was lost.
                    if (core.prf[e.src[s]].ready)
                        VERIFY_VIOLATION(vstats.iq_state,
                                         "[cycle %llu] verify: iq[%zu] "
                                         "slot %zu src%d phys %d "
                                         "completed but its ready bit "
                                         "was never set (missed "
                                         "wakeup)", cyc, qi, si, s,
                                         e.src[s]);
                    // Subscription completeness: a still-waiting
                    // operand must be reachable by the producer's
                    // eventual broadcast, i.e. its slot's bit is set
                    // in the producer's wakeup mask for this queue.
                    if (!((core.waitMask(e.src[s], (int)qi) >> si) & 1))
                        VERIFY_VIOLATION(vstats.iq_state,
                                         "[cycle %llu] verify: iq[%zu] "
                                         "slot %zu src%d waits on phys "
                                         "%d but its wakeup mask bit "
                                         "is clear", cyc, qi, si, s,
                                         e.src[s]);
                }
            }
            if (slot.cls != e.uop.schedCls())
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "mirrored class %d disagrees with ROB "
                                 "slot %d class %d", cyc, qi, si,
                                 (int)slot.cls, slot.rob,
                                 (int)e.uop.schedCls());
            // A slot sleeps at CYCLE_NEVER exactly when it holds a
            // parked load: nothing else has a wake that could reach
            // it, and a parked load is woken only through its slot.
            bool parked_load = e.uop.isLoad() && t.ldq.live(e.lsq)
                               && t.ldq[e.lsq].parked;
            if (slot.wake_cycle.never() != parked_load)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "%s", cyc, qi, si,
                                 parked_load ? "holds a parked load but "
                                               "does not sleep"
                                             : "sleeps at CYCLE_NEVER but "
                                               "holds no parked load");
            // Scoreboard consistency: an entry still waiting in a
            // queue has not executed, so it must be InQueue and its
            // destination register must not be marked ready yet.
            if (e.state != OooCore::RobState::InQueue)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "holds ROB slot %d in state %d (not "
                                 "InQueue)", cyc, qi, si, slot.rob,
                                 (int)e.state);
            else if (e.phys >= 0 && (size_t)e.phys < nprf
                     && core.prf[e.phys].ready)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "ROB slot %d is un-issued but its dest "
                                 "phys %d is already marked ready",
                                 cyc, qi, si, slot.rob, e.phys);
        }
    }
    for (size_t ti = 0; ti < core.threads.size(); ti++) {
        const OooCore::Thread &t = core.threads[ti];
        for (int n = 0; n < t.rob.size(); n++) {
            int idx = t.rob.slotAt(n);
            const OooCore::RobEntry &e = t.rob[idx];
            int q = queued[ti][idx];
            // Rename leaves every entry it fills InQueue or Done; a
            // live slot still in the default Waiting state was never
            // filled.
            if (e.state != OooCore::RobState::InQueue
                && e.state != OooCore::RobState::Done)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "slot %d is live but unfilled (state "
                                 "%d)", cyc, ti, idx, (int)e.state);
            if (e.state == OooCore::RobState::InQueue && q != 1)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "slot %d is InQueue but sits in %d "
                                 "issue-queue slots", cyc, ti, idx, q);
            if (e.state == OooCore::RobState::Done && q != 0)
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "slot %d is Done but still sits in %d "
                                 "issue-queue slots", cyc, ti, idx, q);
        }
    }

    // ------------------------------------------------------------------
    // Interlocks: every lock a thread of this core owns must be held by
    // one of its live LDQ/STQ entries. An orphaned lock is never
    // released by commit or flush and blocks every other owner forever.
    // ------------------------------------------------------------------
    for (const auto &[paddr, owner] : core.interlocks->heldLocks()) {
        for (size_t ti = 0; ti < core.threads.size(); ti++) {
            const OooCore::Thread &t = core.threads[ti];
            if (core.ownerId(t) != owner)
                continue;
            bool found = false;
            for (const auto *q : {&t.ldq, &t.stq}) {
                for (int age = 0; age < q->size(); age++) {
                    const OooCore::LsqEntry &l = (*q)[q->slotAt(age)];
                    found |= (l.lock_acquired
                              && (l.paddr.raw() >> 3) == (paddr >> 3));
                }
            }
            if (!found)
                VERIFY_VIOLATION(vstats.interlock,
                                 "[cycle %llu] verify: thread %zu owns "
                                 "the interlock on paddr %llx but no "
                                 "live LSQ entry holds it (orphaned)",
                                 cyc, ti, (unsigned long long)paddr);
        }
    }

    // ------------------------------------------------------------------
    // PRF leak / refcount conservation (needs the full reachability
    // picture, so runs after all threads and queues are walked).
    // ------------------------------------------------------------------
    for (size_t p = 0; p < nprf; p++) {
        const auto &reg = core.prf[p];
        if (!reg.in_free_list && !referenced[p])
            VERIFY_VIOLATION(vstats.prf_leak,
                             "[cycle %llu] verify: phys %zu is "
                             "allocated but unreachable from any RAT or "
                             "live ROB entry (leaked)", cyc, p);
        if (!reg.in_free_list && reg.refcount != arch_refs[p])
            VERIFY_VIOLATION(vstats.prf_leak,
                             "[cycle %llu] verify: phys %zu refcount %d "
                             "disagrees with %d architectural map "
                             "references", cyc, p, reg.refcount,
                             arch_refs[p]);
    }

    // ------------------------------------------------------------------
    // Memory-backend timing bookkeeping. The backend is a black box to
    // the core, so the audit goes through the deliberately narrow
    // AuditView rather than poking at model internals: whatever timing
    // model is configured, its queue depths and busy stamps must stay
    // self-consistent.
    // ------------------------------------------------------------------
    if (core.hierarchy != nullptr) {
        const MemBackend &backend = core.hierarchy->memBackend();
        MemBackend::AuditView view = backend.audit();
        if (view.deferred_capacity > 0
            && view.deferred_depth > view.deferred_capacity)
            VERIFY_VIOLATION(vstats.membackend,
                             "[cycle %llu] verify: %s deferred-write "
                             "queue holds %zu entries, over its "
                             "capacity of %zu", cyc, backend.name(),
                             view.deferred_depth, view.deferred_capacity);
        if (view.banked && view.max_bank_busy.never())
            VERIFY_VIOLATION(vstats.membackend,
                             "[cycle %llu] verify: %s bank busy stamp "
                             "saturated to CYCLE_NEVER (a request on "
                             "that bank would never complete)", cyc,
                             backend.name());
        if (!backend.nextDue().never() && view.deferred_depth == 0)
            VERIFY_VIOLATION(vstats.membackend,
                             "[cycle %llu] verify: %s reports pending "
                             "work via nextDue() but its deferred queue "
                             "is empty", cyc, backend.name());
    }

    return nviol;
}

int
InvariantChecker::checkCoherence(const CoherenceController &coherence,
                                 SimCycle now)
{
    int nviol = 0;
    vstats.checks++;
    std::string why;
    int bad = coherence.auditAll(&why);
    if (bad > 0) {
        // One violation record per audit pass (the audit string names
        // the first offending line and its holder census).
        VERIFY_VIOLATION(vstats.mesi,
                         "[cycle %llu] verify: %d MOESI directory "
                         "violations: %s", (unsigned long long)now.raw(), bad,
                         why.c_str());
    }
    return nviol;
}

// ---------------------------------------------------------------------
// Test hooks: surgical corruptions, one per invariant family.
// ---------------------------------------------------------------------

bool
VerifyTestHook::corruptRobCount(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    if (t.rob.empty() || t.rob.full())
        return false;
    t.rob.pushBack();  // a live slot rename never filled
    return true;
}

bool
VerifyTestHook::corruptRobOrder(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    if (t.rob.size() < 2)
        return false;
    std::swap(t.rob[t.rob.slotAt(0)].seq, t.rob[t.rob.slotAt(1)].seq);
    return true;
}

bool
VerifyTestHook::corruptLsqAge(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    if (t.ldq.empty())
        return false;
    OooCore::LsqEntry &first = t.ldq[t.ldq.slotAt(0)];
    if (t.ldq.size() >= 2)
        std::swap(first.seq, t.ldq[t.ldq.slotAt(1)].seq);
    else
        first.seq += 1000;  // breaks the LSQ-vs-ROB agreement instead
    return true;
}

bool
VerifyTestHook::corruptLsqRing(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    if (t.stq.empty() || t.stq.full())
        return false;
    t.stq.pushBack();  // a live slot rename never filled
    return true;
}

bool
VerifyTestHook::corruptPrfLeak(OooCore &core)
{
    // Allocate a register and abandon it: reachable from nothing.
    return core.allocPhys(false) >= 0;
}

bool
VerifyTestHook::corruptPrfDoubleFree(OooCore &core)
{
    if (core.free_int.empty())
        return false;
    core.free_int.push_back(core.free_int.front());
    return true;
}

bool
VerifyTestHook::corruptIqReady(OooCore &core)
{
    for (OooCore::IssueQueue &iq : core.queues) {
        if (!iq.live)
            continue;
        const OooCore::IqEntry &slot =
            iq.slots[(size_t)std::countr_zero(iq.live)];
        // Pretend the uop executed without leaving the queue.
        core.threads[slot.thread].rob[slot.rob].state =
            OooCore::RobState::Done;
        return true;
    }
    return false;
}

bool
VerifyTestHook::dropWaiterSubscription(OooCore &core)
{
    for (size_t q = 0; q < core.queues.size(); q++) {
        OooCore::IssueQueue &iq = core.queues[q];
        for (U64 m = iq.live; m; m &= m - 1) {
            int si = std::countr_zero(m);
            const OooCore::IqEntry &slot = iq.slots[(size_t)si];
            for (int s = 0; s < 4; s++) {
                if (slot.src[s] < 0 || ((slot.ready_mask >> s) & 1))
                    continue;
                core.waitMask(slot.src[s], (int)q) &= ~(U64(1) << si);
                return true;
            }
        }
    }
    return false;
}

bool
VerifyTestHook::resolveStoreWithoutWake(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    for (int age = 0; age < t.ldq.size(); age++) {
        const OooCore::LsqEntry &l = t.ldq[t.ldq.slotAt(age)];
        if (!l.parked)
            continue;
        // The load's one older store with an unknown address, if it
        // has exactly one: resolving it leaves the load unblocked.
        int unknown = -1, count = 0;
        for (int sa = 0; sa < t.stq.size(); sa++) {
            int slot = t.stq.slotAt(sa);
            if (t.stq[slot].seq < l.seq && !t.stq[slot].addr_known) {
                unknown = slot;
                count++;
            }
        }
        if (count == 1) {
            t.stq[unknown].addr_known = true;
            return true;
        }
    }
    return false;
}

bool
VerifyTestHook::orphanInterlock(OooCore &core, int thread)
{
    // The top 8-byte region of a 4 GiB physical space: no test guest
    // touches it, so no LSQ entry can hold its lock.
    return core.interlocks->acquire(GuestPhys(0xfffffff8ULL),
                                    core.ownerId(core.threads[thread]));
}

bool
VerifyTestHook::skewStoreData(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    for (int i = 0; i < t.stq.size(); i++) {
        OooCore::LsqEntry &s = t.stq[t.stq.slotAt(i)];
        if (t.rob[s.rob].state == OooCore::RobState::Done) {
            s.data ^= 0x1;
            return true;
        }
    }
    return false;
}

void
VerifyTestHook::setSmtRotors(OooCore &core, int value)
{
    core.next_rename_thread = value;
    core.next_commit_thread = value;
}

std::array<int, 3>
VerifyTestHook::smtRotors(const OooCore &core)
{
    return {core.next_fetch_thread, core.next_rename_thread,
            core.next_commit_thread};
}

}  // namespace ptl
