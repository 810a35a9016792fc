#include "core/ooo/ooocore.h"

#include <bit>
#include <cstring>
#include <cstdlib>

#include "lib/logging.h"

namespace ptl {

OooCore::OooCore(const CoreBuildParams &params, bool smt_mode)
    : cfg(*params.config), smt(smt_mode), aspace(params.aspace),
      bbcache(params.bbcache), sys(params.sys), stats(params.stats),
      interlocks(params.interlocks), coherence(params.coherence),
      pending_smc(*params.sys),
      st_commit_insns(stats->counter(params.prefix + "commit/insns")),
      st_commit_uops(stats->counter(params.prefix + "commit/uops")),
      st_cycles(stats->counter(params.prefix + "cycles")),
      st_branches(stats->counter(params.prefix + "branches/total")),
      st_cond_branches(stats->counter(params.prefix + "branches/cond")),
      st_mispredicts(
          stats->counter(params.prefix + "branches/mispredicted")),
      st_indirect_branches(
          stats->counter(params.prefix + "branches/indirect")),
      st_indirect_mispredicts(
          stats->counter(params.prefix + "branches/indirect_mispredicted")),
      st_loads(stats->counter(params.prefix + "commit/loads")),
      st_stores(stats->counter(params.prefix + "commit/stores")),
      st_load_forwards(stats->counter(params.prefix + "lsq/forwards")),
      st_load_replays(stats->counter(params.prefix + "lsq/replays")),
      st_events(stats->counter(params.prefix + "commit/events_delivered")),
      st_faults(stats->counter(params.prefix + "commit/faults_delivered")),
      st_assists(stats->counter(params.prefix + "commit/assists")),
      st_flushes(stats->counter(params.prefix + "pipeline/flushes")),
      st_fetch_stall(stats->counter(params.prefix + "pipeline/fetch_stalls")),
      st_rename_stall(
          stats->counter(params.prefix + "pipeline/rename_stalls")),
      st_hoist_flushes(stats->counter(params.prefix + "lsq/hoist_flushes")),
      st_deadlock_rescues(
          stats->counter(params.prefix + "smt/deadlock_rescues")),
      st_checker_commits(stats->counter(params.prefix + "checker/commits")),
      st_lockstep_commits(
          stats->counter(params.prefix + "checker/lockstep_commits")),
      st_skipped_cycles(
          stats->counter(params.prefix + "ooocore/skipped_cycles")),
      st_wakeup_broadcasts(
          stats->counter(params.prefix + "ooocore/wakeup_broadcasts")),
      st_select_fast_skips(
          stats->counter(params.prefix + "ooocore/select_fast_skips"))
{
    static constexpr const char *REPLAY_CAUSE_NAMES[] = {
        "interlock", "lock_order", "unknown_store_addr",
        "partial_overlap", "mshr_full", "bank_conflict"};
    static_assert(std::size(REPLAY_CAUSE_NAMES)
                  == (size_t)ReplayCause::Count);
    for (size_t i = 0; i < st_replay_causes.size(); i++) {
        st_replay_causes[i] = &stats->counter(
            params.prefix + "lsq/replays/" + REPLAY_CAUSE_NAMES[i]);
    }
    core_id = params.core_id;
    trace_commits = std::getenv("PTLSIM_TRACE") != nullptr;
    ptl_assert(!params.contexts.empty());
    ptl_assert((int)params.contexts.size() <= 16);  // paper's SMT limit

    hierarchy = params.hierarchy;
    ptl_assert(hierarchy != nullptr);
    predictor = std::make_unique<BranchPredictor>(cfg, *stats,
                                                  params.prefix);

    // Physical register files: one pool, int partition then fp. The
    // configured sizes are the *rename* pool; each hardware thread
    // additionally pins one physical register per architectural slot,
    // so reserve those on top (otherwise a 16-thread SMT core could
    // not even hold its architectural state).
    static_assert(RAT_SIZE == SimConfig::OOO_ARCH_REGS_PER_THREAD);
    int nthreads = (int)params.contexts.size();
    int int_arch = nthreads * (NUM_UOP_REGS - 16 + NUM_FLAG_GROUPS);
    int fp_arch = nthreads * 16;
    int int_total = cfg.int_prf_size + int_arch;
    int fp_total = cfg.fp_prf_size + fp_arch;
    prf.resize((size_t)int_total + (size_t)fp_total);
    for (int i = 0; i < int_total; i++)
        free_int.push_back(i);
    for (int i = 0; i < fp_total; i++) {
        prf[(size_t)int_total + i].is_fp = true;
        free_fp.push_back(int_total + i);
    }

    // Clustered issue queues: N integer lanes + one FP queue.
    for (int q = 0; q < cfg.int_iq_count; q++) {
        IssueQueue iq;
        iq.slots.resize((size_t)cfg.int_iq_size);
        iq.cluster = q;
        queues.push_back(std::move(iq));
    }
    {
        IssueQueue fpq;
        fpq.slots.resize((size_t)cfg.fp_iq_size);
        fpq.cluster = cfg.int_iq_count;
        fp_queue_index = (int)queues.size();
        queues.push_back(std::move(fpq));
    }
    wait_masks.assign(prf.size() * queues.size(), 0);

    // Per-thread structures.
    threads.resize(params.contexts.size());
    for (size_t i = 0; i < params.contexts.size(); i++) {
        Thread &t = threads[i];
        t.ctx = params.contexts[i];
        t.rob.resize(cfg.rob_size);
        t.ldq.resize(cfg.ldq_size);
        t.stq.resize(cfg.stq_size);
        t.fetch_queue.resize(cfg.fetch_queue_size);
        t.checkpoints.resize((size_t)cfg.rob_size);
        // Initialize the register maps: one phys per arch slot,
        // preloaded from the context.
        for (int r = 0; r < RAT_SIZE; r++) {
            bool fp = (r < NUM_UOP_REGS) && isFpReg(r);
            int p = allocPhys(fp);
            ptl_assert(p >= 0);
            prf[p].value = (r < NUM_UOP_REGS) ? t.ctx->reg(r) : 0;
            prf[p].flags = t.ctx->flags;
            prf[p].ready = true;
            prf[p].ready_cycle = SimCycle(0);
            t.arch_rat[r] = (S16)p;
            t.spec_rat[r] = (S16)p;
            addRefPhys(p);
        }
        t.fetch_rip = t.ctx->rip;
    }

    // Commit checker (Section 2.3's TFSim-style self-validation): the
    // per-uop architectural replay always runs under commit_checker;
    // the full lockstep compare against the functional reference
    // engine additionally requires that this pipeline is the only
    // writer of guest memory, since the reference re-applies committed
    // stores (idempotent only without racing SMT siblings or peers).
    lockstep_enabled = cfg.commit_checker && threads.size() == 1
                       && coherence == nullptr;
    if (lockstep_enabled) {
        for (size_t i = 0; i < threads.size(); i++) {
            Thread &t = threads[i];
            t.shadow_ctx = std::make_unique<Context>(*t.ctx);
            t.checker = std::make_unique<FunctionalEngine>(
                *t.shadow_ctx, *aspace, *bbcache, pending_smc, *stats,
                params.prefix + "checker/t" + std::to_string(i) + "/");
        }
    }

    // The per-cycle invariant auditor (if any) arrives later via
    // attachAuditor(): whoever assembles the machine decides, so this
    // core never depends on the verification layer above it.
}

OooCore::~OooCore() = default;

int
OooCore::verifyNow(SimCycle now)
{
    if (!verifier)
        return 0;
    int n = verifier->checkCore(*this, now);
    if (coherence)
        n += verifier->checkCoherence(*coherence, now);
    return n;
}

int
OooCore::allocPhys(bool fp)
{
    std::vector<int> &list = fp ? free_fp : free_int;
    if (list.empty())
        return -1;
    int p = list.back();
    list.pop_back();
    PhysReg &reg = prf[p];
    reg.ready = false;
    reg.ready_cycle = CYCLE_NEVER;
    reg.refcount = 0;
    reg.in_free_list = false;
    // Drop subscriptions left behind if the previous owner was
    // squashed before it could broadcast.
    for (size_t q = 0; q < queues.size(); q++)
        waitMask(p, (int)q) = 0;
    return p;
}

void
OooCore::freePhys(int phys)
{
    if (phys < 0)
        return;
    PhysReg &reg = prf[phys];
    ptl_assert(!reg.in_free_list);
    ptl_assert(reg.refcount == 0);
    reg.in_free_list = true;
    (reg.is_fp ? free_fp : free_int).push_back(phys);
}

void
OooCore::addRefPhys(int phys)
{
    if (phys >= 0)
        prf[phys].refcount++;
}

void
OooCore::dropRefPhys(int phys)
{
    if (phys < 0)
        return;
    PhysReg &reg = prf[phys];
    ptl_assert(reg.refcount > 0);
    if (--reg.refcount == 0 && !reg.in_free_list)
        freePhys(phys);
}

void
OooCore::broadcastReady(int phys)
{
    const PhysReg &reg = prf[phys];
    st_wakeup_broadcasts++;
    for (size_t q = 0; q < queues.size(); q++) {
        U64 &waiting = waitMask(phys, (int)q);
        if (!waiting)
            continue;
        IssueQueue &iq = queues[q];
        SimCycle eff = effectiveReadyCycle(reg, iq.cluster);
        for (U64 m = waiting & iq.live; m; m &= m - 1) {
            IqEntry &slot = iq.slots[(size_t)std::countr_zero(m)];
            U8 mask = slot.ready_mask;
            for (int s = 0; s < 4; s++) {
                if ((int)slot.src[s] == phys)
                    mask |= (U8)(1 << s);
            }
            if (mask == slot.ready_mask)
                continue;
            slot.ready_mask = mask;
            if (eff > slot.wake_cycle)
                slot.wake_cycle = eff;
            // Last operand arrived: the entry is now a select
            // candidate, so the queue's skip stamp must cover it.
            if (mask == IQ_ALL_READY && slot.wake_cycle < iq.next_wake)
                iq.next_wake = slot.wake_cycle;
        }
        waiting = 0;
    }
}

int
OooCore::ownerId(const Thread &t) const
{
    return core_id * 16 + (int)(&t - threads.data());
}

void
OooCore::redirectFetch(Thread &t, GuestVirt rip, SimCycle now,
                       CycleDelta penalty)
{
    t.fetch_rip = rip;
    t.fetch_bb = nullptr;
    t.fetch_idx = 0;
    t.fetch_queue.clear();
    t.fetch_stall_until = now + penalty;
    t.fetch_faulted = false;
}

int
OooCore::iqSlotOf(const IssueQueue &iq, const Thread &t, int rob_idx) const
{
    int tid = (int)(&t - threads.data());
    for (U64 m = iq.live; m; m &= m - 1) {
        int si = std::countr_zero(m);
        const IqEntry &slot = iq.slots[(size_t)si];
        if ((int)slot.thread == tid && (int)slot.rob == rob_idx)
            return si;
    }
    return -1;
}

void
OooCore::squashYounger(Thread &t, int rob_idx, SimCycle /*now*/)
{
    // Walk from the tail back to (but excluding) rob_idx, undoing
    // allocations in reverse order.
    while (!t.rob.empty()) {
        int last = t.rob.backSlot();
        if (last == rob_idx)
            break;
        RobEntry &e = t.rob[last];
        // Remove from its issue queue. Only InQueue entries hold a
        // slot (invariant-checked), and the dispatching queue's index
        // equals the entry's cluster, so the search is one queue, not
        // all of them.
        if (e.state == RobState::InQueue) {
            IssueQueue &iq = queues[e.cluster];
            int si = iqSlotOf(iq, t, last);
            if (si >= 0) {
                iq.live &= ~(U64(1) << si);
                iq.used--;
            }
        }
        // Release the LSQ slot (and any interlock a squashed load
        // held). The squashed uop is the youngest of its queue, so
        // its slot is the ring's back.
        if (e.lsq >= 0) {
            Ring<LsqEntry> &q = e.uop.isLoad() ? t.ldq : t.stq;
            const LsqEntry &l = q[e.lsq];
            if (l.lock_acquired)
                interlocks->release(l.paddr, ownerId(t));
            if (l.parked)
                t.parked_loads--;
            q.popBack();
        }
        // Return the speculative physical register.
        if (e.phys >= 0) {
            prf[e.phys].refcount = 0;
            freePhys(e.phys);
        }
        t.rob.popBack();
    }
}

void
OooCore::flushThread(Thread &t)
{
    st_flushes++;
    int tid = (int)(&t - threads.data());
    // Drop everything in flight, youngest first.
    for (; !t.rob.empty(); t.rob.popBack()) {
        const RobEntry &e = t.rob[t.rob.backSlot()];
        if (e.phys >= 0) {
            prf[e.phys].refcount = 0;
            freePhys(e.phys);
        }
    }
    t.rob.clear();
    for (IssueQueue &iq : queues) {
        for (U64 m = iq.live; m; m &= m - 1) {
            int si = std::countr_zero(m);
            if (iq.slots[(size_t)si].thread == tid) {
                iq.live &= ~(U64(1) << si);
                iq.used--;
            }
        }
    }
    t.ldq.clear();
    t.stq.clear();
    t.parked_loads = 0;
    t.fetch_queue.clear();
    std::memcpy(t.spec_rat, t.arch_rat, sizeof(t.spec_rat));
    interlocks->releaseAll(ownerId(t));
    t.fetch_bb = nullptr;
    t.fetch_faulted = false;
    t.fetch_rip = t.ctx->rip;
    // Microcode (assists, event/fault delivery) mutates the Context
    // directly; reload the architectural physical registers so the
    // restarted pipeline reads the true committed state.
    for (int r = 0; r < NUM_UOP_REGS; r++) {
        PhysReg &reg = prf[t.arch_rat[r]];
        reg.value = t.ctx->reg(r);
        reg.ready = true;
        reg.ready_cycle = SimCycle(0);
    }
    for (int g = 0; g < NUM_FLAG_GROUPS; g++) {
        PhysReg &reg = prf[t.arch_rat[FLAG_RAT_BASE + g]];
        reg.flags = t.ctx->flags;
        reg.ready = true;
        reg.ready_cycle = SimCycle(0);
    }
}

void
OooCore::flushPipeline()
{
    for (Thread &t : threads)
        flushThread(t);
    // The flush itself is pipeline activity the sleep decision never
    // saw; force a full evaluation next cycle.
    idle_until = SimCycle(0);
}

void
OooCore::flushTlbs()
{
    hierarchy->flushTlbs();
}

void
OooCore::resetMicroarch(SimCycle now)
{
    flushPipeline();
    hierarchy->flushTlbs();
    hierarchy->flushCaches();
    predictor->reset();
    resetTimebase(now);
}

void
OooCore::resetTimebase(SimCycle now)
{
    // Fetch backoffs and the commit watchdog hold absolute cycle
    // stamps; after a time warp the former would park fetch until the
    // old clock value recurs and the latter would see a gigantic
    // unsigned gap and fire spuriously.
    for (Thread &t : threads) {
        t.fetch_stall_until = SimCycle(0);
        t.last_commit_cycle = now;
        t.commit_wake = CYCLE_NEVER;
    }
    // Skip-ahead bookkeeping also holds absolute stamps: a stale
    // idle_until or queue wake bound from before the warp would point
    // at cycles that now lie in the far future and park the core.
    idle_until = SimCycle(0);
    for (IssueQueue &iq : queues)
        iq.next_wake = SimCycle(0);
    hierarchy->resetTimebase();
}

bool
OooCore::allIdle() const
{
    for (const Thread &t : threads) {
        if (t.ctx->running)
            return false;
    }
    return true;
}

int
OooCore::pickFetchThread(SimCycle now)
{
    int n = (int)threads.size();
    if (cfg.smt_policy == SmtPolicy::Icount && n > 1) {
        // ICOUNT: fetch for the thread with the fewest uops in flight.
        int best = -1;
        int best_count = INT32_MAX;
        for (int i = 0; i < n; i++) {
            Thread &t = threads[i];
            if (!t.ctx->running || t.fetch_stall_until > now
                || t.fetch_faulted)
                continue;
            int inflight = t.rob.size() + t.fetch_queue.size();
            if (inflight < best_count) {
                best_count = inflight;
                best = i;
            }
        }
        return best;
    }
    for (int k = 0; k < n; k++) {
        int i = (next_fetch_thread + k) % n;
        Thread &t = threads[i];
        if (!t.ctx->running || t.fetch_stall_until > now || t.fetch_faulted)
            continue;
        next_fetch_thread = i + 1;
        return i;
    }
    return -1;
}

SimCycle
OooCore::quiescedUntil(SimCycle now) const
{
    // A previous cycle proved no pipeline state can change before
    // idle_until, so only the externally-driven wake conditions need
    // checking: a VCPU running-flag flip or an event becoming
    // deliverable. Everything else (wakeups, replays, fetch stalls,
    // the commit watchdog, the audit cadence) is already folded into
    // idle_until by sleepCore().
    if (now >= idle_until)
        return now;
    for (const Thread &t : threads) {
        const Context &c = *t.ctx;
        if (c.running != t.slept_running
            || (c.running && c.event_pending && !c.event_mask
                && c.event_callback != 0))
            return now;
    }
    return idle_until;
}

void
OooCore::skipQuiesced(SimCycle from, SimCycle to)
{
    const U64 n = (to - from).raw();
    st_cycles += n;
    st_skipped_cycles += n;
    // Keep the SMT arbitration rotors bit-identical with a
    // cycle-by-cycle run: the fetch rotor only moves when an eligible
    // thread exists (its queue is necessarily full during a quiesced
    // cycle, so picking it fetches nothing), and the rename and commit
    // rotors move every cycle.
    const U64 nthreads = threads.size();
    if (nthreads > 1) {
        for (SimCycle c = from; c < to; ++c)
            (void)pickFetchThread(c);
        next_rename_thread =
            (int)(((U64)next_rename_thread + n % nthreads) % nthreads);
        next_commit_thread =
            (int)(((U64)next_commit_thread + n % nthreads) % nthreads);
    }
}

void
OooCore::cycle(SimCycle now)
{
    if (quiescedUntil(now) > now) {
        skipQuiesced(now, now + cycles(1));
        return;
    }

    st_cycles++;
    cycle_activity = false;
    stageCommit(now);
    stageIssue(now);
    stageRename(now);
    stageFetch(now);

    // SMT deadlock rescue (Section 2.2's deadlock prevention schemes):
    // a thread that has not committed for a long time gets flushed and
    // refetched, releasing any structural resources it wedged.
    for (Thread &t : threads) {
        if (!t.ctx->running) {
            t.last_commit_cycle = now;
            continue;
        }
        if (!t.rob.empty()
            && now - t.last_commit_cycle
                   > cycles((U64)cfg.smt_deadlock_timeout)) {
            st_deadlock_rescues++;
            flushThread(t);
            t.last_commit_cycle = now;
            cycle_activity = true;
        }
    }

    // End-of-cycle invariant audit (src/verify): all pipeline stages
    // have run, so every structure should be self-consistent.
    if (verifier)
        verifyNow(now);

    if (cfg.skip_ahead && !cycle_activity)
        sleepCore(now);
    else
        idle_until = SimCycle(0);
}

/**
 * The pipeline just completed a cycle with zero activity: no commit,
 * no issue attempt, no rename, no fetch progress, no rescue. Compute
 * the earliest future cycle at which any structure could change and
 * arm idle_until. Soundness argument, per source:
 *
 *  - Issue: every select candidate (full ready mask) is bounded by its
 *    queue's next_wake; entries still waiting on operands are woken by
 *    a broadcast, and the producing entry's own issue is itself
 *    bounded (transitively grounding every dependence chain).
 *  - Commit: commitThread records why its last attempt this cycle
 *    blocked (commit_wake); the remaining reasons (incomplete group,
 *    un-issued entry) resolve only via rename/issue events that are
 *    activity when they fire.
 *  - Frontend: a thread whose fetch could proceed would have fetched
 *    (= activity), so fetch is stalled (wake at fetch_stall_until),
 *    faulted (waits on commit), or queue-full (waits on rename, which
 *    waits on front().ready_at or on resources freed by activity).
 *  - Watchdog: the rescue deadline for any thread with in-flight work.
 *  - Audit: an attached auditor checks every evaluated cycle, so
 *    never skip past the next one.
 */
void
OooCore::sleepCore(SimCycle now)
{
    SimCycle wake = CYCLE_NEVER;
    auto fold = [&wake](SimCycle c) {
        if (c < wake)
            wake = c;
    };
    for (const IssueQueue &iq : queues) {
        if (iq.used > 0)
            fold(iq.next_wake);
    }
    for (Thread &t : threads) {
        t.slept_running = t.ctx->running;
        if (!t.ctx->running)
            continue;
        fold(t.commit_wake);
        if (!t.fetch_faulted && !t.fetch_queue.full())
            fold(std::max(t.fetch_stall_until, now + cycles(1)));
        if (!t.fetch_queue.empty()
            && t.fetch_queue.front().ready_at > now)
            fold(t.fetch_queue.front().ready_at);
        if (!t.rob.empty())
            fold(t.last_commit_cycle
                 + cycles((U64)cfg.smt_deadlock_timeout + 1));
    }
    if (verifier)
        fold(now + cycles(1));
    // Memory backend deferred work (e.g. the hybrid model's
    // deferred-write queue): drain everything due by now, then never
    // skip past the next due stamp. After drainTo(now) the head's
    // bank is busy past `now`, so the fold is strictly in the future
    // and the core cannot wedge re-arming the same cycle.
    hierarchy->drainBackend(now);
    SimCycle backend_due = hierarchy->backendNextDue();
    if (!backend_due.never())
        fold(std::max(backend_due, now + cycles(1)));
    idle_until = wake;
}

std::string
OooCore::debugState() const
{
    std::string out;
    for (size_t i = 0; i < threads.size(); i++) {
        const Thread &t = threads[i];
        out += strprintf(
            "thread %zu: rip=%llx running=%d rob=%d fq=%d "
            "fetch_rip=%llx stalled_until=%llu faulted=%d\n",
            i, (unsigned long long)t.ctx->rip.raw(),
            (int)t.ctx->running,
            t.rob.size(), t.fetch_queue.size(),
            (unsigned long long)t.fetch_rip.raw(),
            (unsigned long long)t.fetch_stall_until.raw(),
            (int)t.fetch_faulted);
        for (int n = 0; n < std::min(t.rob.size(), 8); n++) {
            int idx = t.rob.slotAt(n);
            const RobEntry &e = t.rob[idx];
            out += strprintf(
                "  rob[%d] %s rip=%llx state=%d fault=%s "
                "phys=%d ready=%d rdy_cyc=%llu srcs=%d,%d,%d,%d\n",
                idx, uopInfo(e.uop.op).name,
                (unsigned long long)e.uop.rip, (int)e.state,
                guestFaultName(e.fault), e.phys,
                e.phys >= 0 ? (int)prf[e.phys].ready : -1,
                e.phys >= 0
                    ? (unsigned long long)prf[e.phys].ready_cycle.raw()
                    : 0ULL,
                e.src[0], e.src[1], e.src[2], e.src[3]);
        }
    }
    for (size_t q = 0; q < queues.size(); q++)
        out += strprintf("iq[%zu] used=%d\n", q, queues[q].used);
    out += strprintf("free_int=%zu free_fp=%zu\n", free_int.size(),
                     free_fp.size());
    return out;
}

void
registerOooCoreModels()
{
    registerCoreModel("ooo", [](const CoreBuildParams &p) {
        return std::make_unique<OooCore>(p, false);
    });
    registerCoreModel("smt", [](const CoreBuildParams &p) {
        return std::make_unique<OooCore>(p, true);
    });
}

}  // namespace ptl
