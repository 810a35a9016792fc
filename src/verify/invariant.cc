/**
 * @file
 * Implementation of the pipeline invariant checker (see verify.h).
 *
 * The checker deliberately re-derives every occupancy counter and
 * ordering property from first principles (cursor arithmetic, sequence
 * numbers, reachability from the register maps) instead of trusting
 * the core's own bookkeeping — the entire point is to catch the core's
 * bookkeeping lying.
 */

#include "verify/verify.h"

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
      rob_count(stats.counter(prefix + "verify/rob/count")),
      checkpoint(stats.counter(prefix + "verify/rob/checkpoint")),
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
        int rsize = (int)t.rob.size();

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

        // ---- ROB cursor / occupancy conservation ----
        if (t.rob_used < 0 || t.rob_used > rsize) {
            VERIFY_VIOLATION(vstats.rob_count,
                             "[cycle %llu] verify: thread %zu rob_used "
                             "%d outside [0, %d]", cyc, ti, t.rob_used,
                             rsize);
        } else {
            int span = (t.rob_tail - t.rob_head + rsize) % rsize;
            bool ok = (span == t.rob_used)
                      || (span == 0
                          && (t.rob_used == 0 || t.rob_used == rsize));
            if (!ok)
                VERIFY_VIOLATION(vstats.rob_count,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "cursors head=%d tail=%d span %d "
                                 "disagree with rob_used %d",
                                 cyc, ti, t.rob_head, t.rob_tail, span,
                                 t.rob_used);
        }

        // ---- walk the live window: age order, checkpoints, dests ----
        int used = std::min(std::max(t.rob_used, 0), rsize);
        U64 prev_seq = 0;
        bool have_prev = false;
        int idx = t.rob_head;
        for (int n = 0; n < used; n++, idx = (idx + 1) % rsize) {
            const OooCore::RobEntry &e = t.rob[idx];
            if (have_prev && e.seq <= prev_seq)
                VERIFY_VIOLATION(vstats.rob_order,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "age order broken at slot %d (seq %llu "
                                 "after %llu)", cyc, ti, idx,
                                 (unsigned long long)e.seq,
                                 (unsigned long long)prev_seq);
            prev_seq = e.seq;
            have_prev = true;

            // Checkpoints are indexed by ROB slot, so a live entry can
            // only hold its own slot's.
            if (e.checkpoint >= 0 && e.checkpoint != idx)
                VERIFY_VIOLATION(vstats.checkpoint,
                                 "[cycle %llu] verify: thread %zu ROB "
                                 "slot %d holds checkpoint %d, not its "
                                 "own", cyc, ti, idx, e.checkpoint);

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
        // Each queue is a program-order ring: the valid entries must be
        // exactly the `used` slots that end at the tail, with rising
        // sequence numbers, and each must mirror its ROB entry.
        struct LsqRing
        {
            const char *name;
            const std::vector<OooCore::LsqEntry> &q;
            int head, tail, used;
            bool is_ldq;
        };
        for (const LsqRing &r :
             {LsqRing{"LDQ", t.ldq, t.ldq_head, t.ldq_tail, t.ldq_used,
                      true},
              LsqRing{"STQ", t.stq, t.stq_head, t.stq_tail, t.stq_used,
                      false}}) {
            int qsize = (int)r.q.size();
            if (r.used < 0 || r.used > qsize || r.tail < 0
                || r.tail >= qsize) {
                VERIFY_VIOLATION(vstats.lsq_state,
                                 "[cycle %llu] verify: thread %zu %s "
                                 "tail %d / used %d outside a %d-entry "
                                 "ring", cyc, ti, r.name, r.tail, r.used,
                                 qsize);
                continue;
            }
            int first = (r.tail - r.used + qsize) % qsize;
            if (r.head != first)
                VERIFY_VIOLATION(vstats.lsq_state,
                                 "[cycle %llu] verify: thread %zu %s "
                                 "cursors head=%d tail=%d disagree with "
                                 "used %d", cyc, ti, r.name, r.head,
                                 r.tail, r.used);
            U64 prev_lsq_seq = 0;
            for (int li = 0; li < qsize; li++) {
                const OooCore::LsqEntry &l = r.q[li];
                int age = (li - first + qsize) % qsize;  // 0 = oldest
                bool live = age < r.used;
                if (l.valid != live)
                    VERIFY_VIOLATION(vstats.lsq_state,
                                     "[cycle %llu] verify: thread %zu %s "
                                     "slot %d is %s but the ring's "
                                     "cursors say %s", cyc, ti, r.name, li,
                                     l.valid ? "valid" : "free",
                                     live ? "live" : "free");
            }
            for (int age = 0; age < r.used; age++) {
                int li = (first + age) % qsize;
                const OooCore::LsqEntry &l = r.q[li];
                if (!l.valid)
                    continue;  // reported above
                if (age > 0 && l.seq <= prev_lsq_seq)
                    VERIFY_VIOLATION(vstats.lsq_age,
                                     "[cycle %llu] verify: thread %zu %s "
                                     "ring order broken at slot %d (seq "
                                     "%llu after %llu)", cyc, ti, r.name,
                                     li, (unsigned long long)l.seq,
                                     (unsigned long long)prev_lsq_seq);
                prev_lsq_seq = l.seq;
                // Back-reference into the live ROB window.
                int pos = (l.rob - t.rob_head + rsize) % rsize;
                if (l.rob < 0 || l.rob >= rsize || pos >= used) {
                    VERIFY_VIOLATION(vstats.lsq_state,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d references dead ROB "
                                     "slot %d", cyc, ti, r.name, li,
                                     l.rob);
                    continue;
                }
                const OooCore::RobEntry &e = t.rob[l.rob];
                bool kind_ok =
                    r.is_ldq ? e.uop.isLoad() : e.uop.isStore();
                if (!kind_ok || e.lsq != li)
                    VERIFY_VIOLATION(vstats.lsq_state,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d and ROB slot %d "
                                     "back-references disagree "
                                     "(rob.lsq=%d)", cyc, ti, r.name, li,
                                     l.rob, e.lsq);
                // Age consistency: the queue entry carries the same
                // program-order sequence number its ROB entry was
                // renamed with.
                else if (l.seq != e.seq)
                    VERIFY_VIOLATION(vstats.lsq_age,
                                     "[cycle %llu] verify: thread %zu "
                                     "%s slot %d seq %llu disagrees "
                                     "with ROB slot %d seq %llu",
                                     cyc, ti, r.name, li,
                                     (unsigned long long)l.seq, l.rob,
                                     (unsigned long long)e.seq);
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue queues vs. the ROB scoreboard.
    // ------------------------------------------------------------------
    // How many valid queue slots reference each (thread, rob) pair;
    // used to prove InQueue entries sit in exactly one slot.
    std::vector<std::vector<int>> queued(core.threads.size());
    for (size_t ti = 0; ti < core.threads.size(); ti++)
        queued[ti].assign(core.threads[ti].rob.size(), 0);
    std::vector<int> int_inflight(core.threads.size(), 0);

    for (size_t qi = 0; qi < core.queues.size(); qi++) {
        const OooCore::IssueQueue &iq = core.queues[qi];
        int valid = 0;
        for (size_t si = 0; si < iq.slots.size(); si++) {
            const OooCore::IqEntry &slot = iq.slots[si];
            if (!slot.valid)
                continue;
            valid++;
            if (slot.thread < 0
                || (size_t)slot.thread >= core.threads.size()) {
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "names invalid thread %d", cyc, qi, si,
                                 slot.thread);
                continue;
            }
            const OooCore::Thread &t = core.threads[slot.thread];
            int rsize = (int)t.rob.size();
            int used = std::min(std::max(t.rob_used, 0), rsize);
            int pos = (slot.rob - t.rob_head + rsize) % rsize;
            if (slot.rob < 0 || slot.rob >= rsize || pos >= used) {
                VERIFY_VIOLATION(vstats.iq_state,
                                 "[cycle %llu] verify: iq[%zu] slot %zu "
                                 "references dead ROB slot %d", cyc, qi,
                                 si, slot.rob);
                continue;
            }
            queued[slot.thread][slot.rob]++;
            if ((int)qi != core.fp_queue_index)
                int_inflight[slot.thread]++;
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
        if (valid != iq.used)
            VERIFY_VIOLATION(vstats.iq_state,
                             "[cycle %llu] verify: iq[%zu] has %d valid "
                             "slots but the occupancy counter says %d",
                             cyc, qi, valid, iq.used);
    }
    for (size_t ti = 0; ti < core.threads.size(); ti++) {
        const OooCore::Thread &t = core.threads[ti];
        int rsize = (int)t.rob.size();
        int used = std::min(std::max(t.rob_used, 0), rsize);
        int idx = t.rob_head;
        for (int n = 0; n < used; n++, idx = (idx + 1) % rsize) {
            const OooCore::RobEntry &e = t.rob[idx];
            int q = queued[ti][idx];
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
        if (core.threads.size() > 1
            && int_inflight[ti] != t.int_iq_inflight)
            VERIFY_VIOLATION(vstats.iq_state,
                             "[cycle %llu] verify: thread %zu occupies "
                             "%d integer queue slots but "
                             "int_iq_inflight says %d", cyc, ti,
                             int_inflight[ti], t.int_iq_inflight);
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
                for (const OooCore::LsqEntry &l : *q)
                    found |= (l.valid && l.lock_acquired
                              && (l.paddr.raw() >> 3) == (paddr >> 3));
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
    if (t.rob_used >= (int)t.rob.size())
        return false;
    t.rob_used++;  // conservation: cursors no longer explain the count
    return true;
}

bool
VerifyTestHook::corruptRobOrder(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    if (t.rob_used < 2)
        return false;
    int a = t.rob_head;
    int b = (a + 1) % (int)t.rob.size();
    std::swap(t.rob[a].seq, t.rob[b].seq);
    return true;
}

bool
VerifyTestHook::corruptLsqAge(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    OooCore::LsqEntry *first = nullptr;
    for (OooCore::LsqEntry &l : t.ldq) {
        if (!l.valid)
            continue;
        if (first) {
            std::swap(first->seq, l.seq);
            return true;
        }
        first = &l;
    }
    // Fewer than two in-flight loads: skew one entry's seq instead
    // (breaks the LSQ-vs-ROB agreement the same family checks).
    if (first) {
        first->seq += 1000;
        return true;
    }
    return false;
}

bool
VerifyTestHook::corruptLsqRing(OooCore &core, int thread)
{
    OooCore::Thread &t = core.threads[thread];
    int size = (int)t.stq.size();
    if (t.stq_used == 0 || t.stq_used == size)
        return false;
    // Advance the tail past a free slot without allocating it.
    t.stq_tail = (t.stq_tail + 1) % size;
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
        for (OooCore::IqEntry &slot : iq.slots) {
            if (!slot.valid)
                continue;
            OooCore::Thread &t = core.threads[slot.thread];
            // Pretend the uop executed without leaving the queue.
            t.rob[slot.rob].state = OooCore::RobState::Done;
            return true;
        }
    }
    return false;
}

bool
VerifyTestHook::dropWaiterSubscription(OooCore &core)
{
    for (size_t q = 0; q < core.queues.size(); q++) {
        OooCore::IssueQueue &iq = core.queues[q];
        for (size_t si = 0; si < iq.slots.size(); si++) {
            const OooCore::IqEntry &slot = iq.slots[si];
            if (!slot.valid)
                continue;
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
VerifyTestHook::orphanInterlock(OooCore &core, int thread)
{
    // The top 8-byte region of a 4 GiB physical space: no test guest
    // touches it, so no LSQ entry can hold its lock.
    return core.interlocks->acquire(GuestPhys(0xfffffff8ULL),
                                    core.ownerId(core.threads[thread]));
}

bool
VerifyTestHook::skewShadowReg(OooCore &core, int thread, int reg)
{
    OooCore::Thread &t = core.threads[thread];
    if (!t.shadow_ctx)
        return false;
    t.shadow_ctx->regs[reg] ^= 0x1;
    return true;
}

}  // namespace ptl
