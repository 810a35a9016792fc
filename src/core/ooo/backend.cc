/**
 * @file: see below — OOO core backend.
 * OOO core backend: issue/execute (with broadcast wakeup via physical
 * register ready times), branch resolution with checkpoint recovery,
 * and the in-order commit unit with atomic x86 semantics, precise
 * exceptions, assists, event delivery and the commit checker.
 */

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/ooo/ooocore.h"
#include "lib/logging.h"

namespace ptl {

namespace {

int
classLatency(const SimConfig &cfg, UopClass cls)
{
    switch (cls) {
      case UopClass::IntAlu: return cfg.lat_alu;
      case UopClass::IntMul: return cfg.lat_mul;
      case UopClass::IntDiv: return cfg.lat_div;
      case UopClass::Fpu: return cfg.lat_fp;
      case UopClass::FpDiv: return cfg.lat_div;
      // Memory and control classes get their latency from the cache
      // hierarchy / branch redirect paths, not the execution unit.
      case UopClass::Load: return 1;
      case UopClass::Store: return 1;
      case UopClass::Branch: return 1;
      case UopClass::Fence: return 1;
      case UopClass::AssistOp: return 1;
    }
    return 1;
}

}  // namespace

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

void
OooCore::stageIssue(SimCycle now)
{
    // Structural hazard: one integer multiplier, one divider per core.
    bool mul_used = false, div_used = false;

    for (IssueQueue &iq : queues) {
        if (iq.used == 0) {
            iq.next_wake = CYCLE_NEVER;
            continue;
        }
        // Queue-level skip: next_wake lower-bounds the earliest cycle
        // any entry here can issue (broadcasts and inserts lower it),
        // so while it lies in the future the whole scan is provably a
        // no-op.
        if (iq.next_wake > now) {
            st_select_fast_skips++;
            continue;
        }
        // Oldest-first (collapsing queue) selection in one pass: gather
        // the slots whose ready mask filled and whose wake stamp
        // arrived, ordered by seq with ties (SMT threads number their
        // uops independently) broken by slot index, then walk them.
        // Nothing issued this cycle can make another slot issuable in
        // the same cycle: every latency is at least one cycle, so a
        // broadcast stamps wake_cycle past now, and so does a replay.
        // The walk therefore picks exactly what re-scanning the queue
        // for the oldest issuable slot after every issue would.
        //
        // The same pass rebuilds the skip bound: the earliest wake
        // stamp of every full-mask slot that survives the walk, where
        // a slot still issuable now (width- or hazard-limited) counts
        // as now+1. Partially-ready slots contribute nothing; the
        // broadcast that completes a mask lowers next_wake itself.
        int order[MAX_IQ_SLOTS];
        int n = 0;
        SimCycle next = CYCLE_NEVER;
        for (U64 m = iq.live; m; m &= m - 1) {
            int i = std::countr_zero(m);
            const IqEntry &slot = iq.slots[(size_t)i];
            if (slot.ready_mask != IQ_ALL_READY)
                continue;
            if (slot.wake_cycle > now) {
                if (slot.wake_cycle < next)
                    next = slot.wake_cycle;
                continue;
            }
            int j = n++;
            for (; j > 0 && iq.slots[order[j - 1]].seq > slot.seq; j--)
                order[j] = order[j - 1];
            order[j] = i;
        }
        iq.next_wake = CYCLE_NEVER;  // lowered by broadcasts in the walk
        int used_before = iq.used;
        int issued = 0, left = 0;
        bool survivor = false;
        for (int k = 0; k < n; k++) {
            if (!((iq.live >> order[k]) & 1))
                continue;  // squashed by a mispredict earlier this walk
            const IqEntry &slot = iq.slots[order[k]];
            UopClass cls = slot.cls;
            if (issued == cfg.issue_width_per_cluster
                || (cls == UopClass::IntMul && mul_used)
                || (cls == UopClass::IntDiv && div_used)) {
                survivor = true;
                continue;
            }
            cycle_activity = true;  // issue or replay both mutate state
            if (issueOne(now, iq, order[k]))
                left++;
            else if (slot.wake_cycle < next)
                next = slot.wake_cycle;  // the replay stamp
            if (cls == UopClass::IntMul)
                mul_used = true;
            if (cls == UopClass::IntDiv)
                div_used = true;
            issued++;  // the port is consumed even by a replayed op
        }
        if (survivor)
            next = now + cycles(1);
        if (iq.used + left == used_before) {
            if (next < iq.next_wake)
                iq.next_wake = next;
            continue;
        }
        // A mispredict squashed slots of this queue, perhaps ones
        // counted above: recompute the bound from what is left.
        next = CYCLE_NEVER;
        for (U64 m = iq.live; m; m &= m - 1) {
            const IqEntry &slot = iq.slots[(size_t)std::countr_zero(m)];
            if (slot.ready_mask != IQ_ALL_READY)
                continue;
            SimCycle at = std::max(slot.wake_cycle, now + cycles(1));
            if (at < next)
                next = at;
        }
        iq.next_wake = next;
    }
}

bool
OooCore::issueOne(SimCycle now, IssueQueue &iq, int slot_idx)
{
    IqEntry &slot = iq.slots[slot_idx];
    Thread &t = threads[slot.thread];
    RobEntry &e = t.rob[slot.rob];
    const Uop &u = e.uop;

    if (u.isLoad() || u.isStore()) {
        SimCycle replay =
            u.isLoad() ? issueLoad(now, t, e) : issueStore(now, t, e);
        if (replay != LSQ_DONE) {
            // Stays in the queue until the replay stamp. The ready mask
            // is full, so no broadcast can lower wake_cycle again; a
            // parked load's CYCLE_NEVER is lowered by its wake alone.
            slot.wake_cycle = replay;
            return false;
        }
        iq.live &= ~(U64(1) << slot_idx);
        iq.used--;
        return true;
    }

    auto value_of = [&](int phys) -> U64 {
        return (phys >= 0) ? prf[phys].value : 0;
    };
    auto flags_of = [&](int phys) -> U16 {
        return (phys >= 0) ? prf[phys].flags : 0;
    };

    UopOutcome out = executeUop(u, value_of(e.src[0]), value_of(e.src[1]),
                                value_of(e.src[2]), flags_of(e.src[3]),
                                flags_of(e.src[0]), flags_of(e.src[1]),
                                flags_of(e.src[2]));
    e.outflags = out.flags;
    if (out.fault != GuestFault::None) {
        e.fault = out.fault;
        e.fault_addr = GuestVirt(u.rip);
    }
    if (e.phys >= 0) {
        PhysReg &reg = prf[e.phys];
        reg.value = out.value;
        reg.flags = out.flags;
        reg.ready = true;
        reg.ready_cycle =
            now + cycles((U64)classLatency(cfg, u.schedCls()));
        reg.cluster = (S8)iq.cluster;
        broadcastReady(e.phys);
    }
    e.state = RobState::Done;
    iq.live &= ~(U64(1) << slot_idx);
    iq.used--;

    if (u.isBranch()) {
        e.actual_next = out.value;  // executeUop yields the true next RIP
        resolveBranch(now, t, slot.rob, e);
    }
    return true;
}

// ---------------------------------------------------------------------
// Branch resolution
// ---------------------------------------------------------------------

void
OooCore::resolveBranch(SimCycle now, Thread &t, int rob_idx, RobEntry &e)
{
    const Uop &u = e.uop;
    st_branches++;

    if (u.op == UopOp::BrCC) {
        st_cond_branches++;
        bool taken =
            (e.actual_next != (U64)u.imm2) || ((U64)u.imm == (U64)u.imm2);
        predictor->resolve(u.rip, e.pred, taken);
    } else if (u.op == UopOp::Jmp) {
        st_indirect_branches++;
        if (!u.hint_ret)
            predictor->updateTarget(u.rip, e.actual_next);
    }

    if (e.actual_next == e.predicted_next)
        return;

    // Misprediction: squash younger work, restore the RAT checkpoint,
    // repair the RAS, redirect fetch after the configured penalty.
    if (u.op == UopOp::BrCC)
        st_mispredicts++;
    else
        st_indirect_mispredicts++;

    squashYounger(t, rob_idx, now);
    // Rename checkpoints every BrCC and Jmp at its own ROB slot; a Bru
    // goes where fetch sent it, so it never gets here.
    if (u.op == UopOp::Bru)
        panic("mispredicted branch without checkpoint (%s at %llx)",
              uopInfo(u.op).name, (unsigned long long)u.rip);
    const RatCheckpoint &c = t.checkpoints[rob_idx];
    std::memcpy(t.spec_rat, c.map, sizeof(t.spec_rat));
    predictor->rasRestore(c.ras_top);
    redirectFetch(t, GuestVirt(e.actual_next), now,
                  cycles((U64)cfg.mispredict_penalty));
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

/**
 * Lockstep self-validation (Section 2.3): replay each instruction the
 * pipeline commits on the functional reference engine (the same engine
 * backing SeqCore) against a shadow context, then require the full
 * architectural state — RIP, every register, the flags image, and the
 * memory effects — to be bit-identical. Divergences are simulator
 * bugs; panic with a cycle-stamped report so the offending commit can
 * be replayed.
 *
 * The reference steps BEFORE the pipeline's stores land in guest
 * memory (lockstepStepReference), so a read-modify-write instruction's
 * reference load sees pre-instruction memory rather than the value
 * this very commit is about to write. Register state is then compared
 * after the pipeline finishes committing the group (lockstepCompare).
 *
 * Every step starts from the committed context: whatever changed it
 * outside commit (assists, delivered events and faults, the machine)
 * is input to the reference, and only what commit computes is checked.
 */
void
OooCore::lockstepStepReference(Thread &t, SimCycle now, GuestVirt insn_rip,
                               const Uop &first_uop)
{
    Context &shadow = *t.shadow_ctx;
    st_lockstep_commits++;

    // The reference never delivers events: the pipeline takes them.
    shadow = *t.ctx;
    shadow.event_pending = false;

    // The reference's decode position is its own: re-acquire it at the
    // committed rip when it is not at the committing group's first uop
    // (a redirect outside commit, or a rep string's pseudo-ops
    // re-fetched from the instruction's own rip after a mispredicted
    // exit check). The group must start at the committed rip too.
    auto at_group = [&](const Uop *u) {
        return u && u->rip == first_uop.rip && u->rip == shadow.rip.raw()
               && u->op == first_uop.op && u->rd == first_uop.rd
               && u->ra == first_uop.ra && u->imm == first_uop.imm;
    };
    if (!at_group(t.checker->peekUop())) {
        t.checker->reposition();
        const Uop *u = t.checker->peekUop();
        if (!at_group(u))
            panic("[cycle %llu] lockstep divergence: pipeline committed "
                  "%s at rip %llx but the reference decodes %s at %llx",
                  (unsigned long long)now.raw(),
                  uopInfo(first_uop.op).name,
                  (unsigned long long)insn_rip.raw(),
                  u ? uopInfo(u->op).name : "nothing",
                  (unsigned long long)shadow.rip.raw());
    }

    FunctionalEngine::StepResult r = t.checker->stepInsn(now);
    if (r.fault_delivered != GuestFault::None)
        panic("[cycle %llu] lockstep divergence at rip %llx: pipeline "
              "committed cleanly but the reference faulted (%s)",
              (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(),
              guestFaultName(r.fault_delivered));
}

/** The reference just wrote this instruction's stores to guest memory;
 *  the pipeline is about to write the same locations from its STQ.
 *  Compare what the reference left there against the STQ data. */
void
OooCore::lockstepCheckStore(Thread &t, SimCycle now, GuestVirt insn_rip,
                            const LsqEntry &s, int size)
{
    U64 ref_value = 0;
    GuestAccess a = guestRead(*aspace, *t.ctx, s.va, (unsigned)size,
                              ref_value);
    U64 mask = size >= 8 ? ~0ULL : (1ULL << (size * 8)) - 1;
    if (a.ok() && ((ref_value ^ s.data) & mask) != 0)
        panic("[cycle %llu] lockstep divergence after commit of rip "
              "%llx:\n  store [%llx]: pipeline %llx vs reference %llx\n",
              (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(),
              (unsigned long long)s.va.raw(),
              (unsigned long long)(s.data & mask),
              (unsigned long long)(ref_value & mask));
}

void
OooCore::lockstepCompare(Thread &t, SimCycle now, GuestVirt insn_rip)
{
    Context &shadow = *t.shadow_ctx;
    Context &arch = *t.ctx;

    std::string diff;
    if (shadow.rip != arch.rip)
        diff += strprintf("  rip: pipeline %llx vs reference %llx\n",
                          (unsigned long long)arch.rip.raw(),
                          (unsigned long long)shadow.rip.raw());
    if (shadow.flags != arch.flags)
        diff += strprintf("  flags: pipeline %04x vs reference %04x\n",
                          arch.flags, shadow.flags);
    for (int reg = 0; reg < NUM_UOP_REGS; reg++) {
        if (shadow.regs[reg] != arch.regs[reg])
            diff += strprintf("  %s: pipeline %llx vs reference %llx\n",
                              uopRegName(reg),
                              (unsigned long long)arch.regs[reg],
                              (unsigned long long)shadow.regs[reg]);
    }
    if (!diff.empty())
        panic("[cycle %llu] lockstep divergence after commit of rip "
              "%llx:\n%s", (unsigned long long)now.raw(),
              (unsigned long long)insn_rip.raw(), diff.c_str());
}

void
OooCore::runChecker(Thread &t, const RobEntry &e)
{
    const Uop &u = e.uop;
    Context &ctx = *t.ctx;
    st_checker_commits++;
    if (u.isAssist() || u.op == UopOp::Nop)
        return;
    U64 ra = ctx.reg(u.ra);
    U64 rb = ctx.reg(u.rb);
    U64 rc = ctx.reg(u.rc);
    if (u.isMem()) {
        GuestVirt va = GuestVirt(uopMemAddr(u, ra, rb));
        const LsqEntry &l = u.isLoad() ? t.ldq[e.lsq] : t.stq[e.lsq];
        if (va != l.va)
            panic("checker: %s at rip %llx address mismatch "
                  "(lsq %llx vs arch %llx)",
                  uopInfo(u.op).name, (unsigned long long)u.rip,
                  (unsigned long long)l.va.raw(),
                  (unsigned long long)va.raw());
        if (u.isStore() && threads.size() == 1
            && (l.data != (rc & byteMask(u.size))))
            panic("checker: store data mismatch at rip %llx",
                  (unsigned long long)u.rip);
        return;
    }
    // Flags consumed in program order equal the committed flag image.
    UopOutcome out = executeUop(u, ra, rb, rc, ctx.flags, ctx.flags,
                                ctx.flags, ctx.flags);
    if (u.isBranch()) {
        if (out.value != e.actual_next)
            panic("checker: branch at rip %llx resolved to %llx, "
                  "arch replay gives %llx",
                  (unsigned long long)u.rip,
                  (unsigned long long)e.actual_next,
                  (unsigned long long)out.value);
        return;
    }
    if (u.writesRd() && out.value != prf[e.phys].value)
        panic("checker: %s at rip %llx value mismatch "
              "(pipeline %llx vs arch replay %llx)",
              uopInfo(u.op).name, (unsigned long long)u.rip,
              (unsigned long long)prf[e.phys].value,
              (unsigned long long)out.value);
    if (u.setflags) {
        U16 mask = 0;
        if (u.setflags & SETFLAG_ZAPS)
            mask |= FLAG_ZAPS_MASK;
        if (u.setflags & SETFLAG_CF)
            mask |= FLAG_CF;
        if (u.setflags & SETFLAG_OF)
            mask |= FLAG_OF;
        if ((out.flags & mask) != (e.outflags & mask))
            panic("checker: %s at rip %llx flags mismatch",
                  uopInfo(u.op).name, (unsigned long long)u.rip);
    }
}

void
OooCore::commitUopState(SimCycle now, Thread &t, RobEntry &e)
{
    const Uop &u = e.uop;
    Context &ctx = *t.ctx;

    if (cfg.commit_checker)
        runChecker(t, e);

    if (u.isLoad())
        st_loads++;
    if (u.isStore()) {
        st_stores++;
        LsqEntry &s = t.stq[e.lsq];
        GuestStore st = guestWrite(*aspace, ctx, s.va, u.size, s.data);
        ptl_assert(st.ok());  // faults were resolved at issue
        hierarchy->dataAccess(s.paddr, true, now, true);
        snoopCodeWrite(pending_smc, st);  // self-modifying code detection
    }
    if (u.schedWritesRd()) {
        ctx.setReg(u.rd, prf[e.phys].value);
        int old = t.arch_rat[u.rd];
        t.arch_rat[u.rd] = (S16)e.phys;
        addRefPhys(e.phys);
        dropRefPhys(old);
    }
    if (u.setflags) {
        ctx.applyFlags(e.outflags, u.setflags);
        for (int g = 0; g < NUM_FLAG_GROUPS; g++) {
            if (!(u.setflags & (1 << g)))
                continue;
            int old = t.arch_rat[FLAG_RAT_BASE + g];
            t.arch_rat[FLAG_RAT_BASE + g] = (S16)e.phys;
            addRefPhys(e.phys);
            dropRefPhys(old);
        }
    }
    if (e.lsq >= 0) {
        // Commit is in program order, so this is the ring's head.
        Ring<LsqEntry> &q = u.isLoad() ? t.ldq : t.stq;
        if (q[e.lsq].lock_acquired)
            interlocks->release(q[e.lsq].paddr, ownerId(t));
        q.popFront();
        e.lsq = -1;
    }
    st_commit_uops++;
}

bool
PendingCodeWrites::deliver()
{
    if (mfns.empty())
        return false;
    // The machine's hook may flush this core's pipeline; that leaves
    // this list alone.
    for (Pfn mfn : mfns)
        sys->notifyCodeWrite(mfn);
    mfns.clear();
    return true;
}

void
OooCore::restartThread(Thread &t, SimCycle now, CycleDelta delay)
{
    flushThread(t);
    redirectFetch(t, t.ctx->rip, now, delay);
    t.last_commit_cycle = now;
}

bool
OooCore::commitThread(SimCycle now, Thread &t, int &budget)
{
    Context &ctx = *t.ctx;

    // Every attempt re-derives why commit is blocked; stale stamps
    // from earlier cycles must not linger into the sleep decision.
    t.commit_wake = CYCLE_NEVER;

    // Event (virtual interrupt) delivery at instruction boundaries.
    bool at_boundary = t.rob.empty() || t.rob.front().uop.som;
    if (at_boundary && ctx.running && ctx.event_pending && !ctx.event_mask
        && ctx.event_callback != 0) {
        deliverEvent(ctx, *aspace);
        st_events++;
        restartThread(t, now, cycles(1));  // re-syncs PRF from ctx
        return true;
    }
    if (t.rob.empty())
        return false;
    // The head has not executed, so the group cannot commit: skip the
    // group walk (the readiness scan below would stop at it first).
    if (t.rob.front().state != RobState::Done)
        return false;

    // Locate the head instruction group [head .. EOM].
    int group[64];
    int count = 0;
    int idx = t.rob.frontSlot();
    bool complete = false;
    for (int n = 0; n < t.rob.size() && count < 64; n++) {
        group[count++] = idx;
        if (t.rob[idx].uop.eom) {
            complete = true;
            break;
        }
        idx = t.rob.next(idx);
    }
    if (!complete)
        return false;  // instruction not fully renamed yet

    // Readiness / fault scan in program order.
    GuestFault fault = GuestFault::None;
    GuestVirt fault_addr;
    bool hoist_violation = false;
    for (int n = 0; n < count; n++) {
        RobEntry &e = t.rob[group[n]];
        if (e.state != RobState::Done)
            return false;
        if (e.phys >= 0 && prf[e.phys].ready) {
            // Writeback completeness goes through the same readiness
            // predicate issue uses (same-cluster view, so the bypass
            // adjustment degenerates to the raw ready_cycle) instead
            // of re-reading the stamp ad hoc.
            const PhysReg &reg = prf[e.phys];
            SimCycle wb = effectiveReadyCycle(reg, reg.cluster);
            if (wb > now) {
                if (wb < t.commit_wake)
                    t.commit_wake = wb;
                return false;  // writeback not complete yet
            }
        }
        if (e.uop.isStore() && e.lsq >= 0
            && e.fault == GuestFault::None) {
            // Interlocks are checked at issue, but the write lands at
            // commit: re-check so a plain store cannot slip inside
            // another thread's locked read-modify-write window.
            const LsqEntry &s = t.stq[e.lsq];
            if (!s.lock_acquired
                && interlocks->heldByOther(s.paddr, ownerId(t))) {
                // The lock owner is another thread or core; its
                // release is invisible to this core's activity
                // tracking, so poll every cycle while asleep.
                t.commit_wake = now + cycles(1);
                return false;
            }
        }
        if (e.hoist_violation) {
            hoist_violation = true;
            break;
        }
        if (e.fault != GuestFault::None) {
            fault = e.fault;
            fault_addr = e.fault_addr;
            break;
        }
    }

    GuestVirt insn_rip = GuestVirt(t.rob.front().uop.rip);

    if (hoist_violation) {
        // Speculative load issued before a conflicting older store:
        // flush and re-execute the instruction (replay storm model).
        st_hoist_flushes++;
        ctx.rip = insn_rip;
        restartThread(t, now, cycles(2));
        budget = 0;
        return true;
    }

    if (fault != GuestFault::None) {
        st_faults++;
        deliverFault(ctx, *aspace, fault, insn_rip, fault_addr);
        restartThread(t, now, cycles(1));
        budget = 0;
        return true;
    }

    // Assist groups: commit the leading uops, run the microcode, then
    // flush (assists are serializing).
    bool has_assist = t.rob[group[count - 1]].uop.isAssist();

    // Assist microcode has system side effects that must not run
    // twice, so the reference never replays an assist group: the next
    // step starts from the context the assist left behind. The
    // reference reports its code writes into pending_smc too.
    bool do_lockstep = lockstep_enabled && t.checker && !has_assist;
    if (do_lockstep) {
        lockstepStepReference(t, now, insn_rip, t.rob[group[0]].uop);
        for (int n = 0; n < count; n++) {
            const RobEntry &e = t.rob[group[n]];
            if (e.uop.isStore() && e.lsq >= 0)
                lockstepCheckStore(t, now, insn_rip, t.stq[e.lsq],
                                   e.uop.size);
        }
    }
    for (int n = 0; n < count; n++) {
        RobEntry &e = t.rob[group[n]];
        if (e.uop.isAssist())
            break;  // executed below, after older effects apply
        commitUopState(now, t, e);
        if (has_assist) {
            // Pop committed leading uops now so the post-assist flush
            // cannot force-free their (architecturally live) registers.
            t.rob.popFront();
        }
    }

    if (has_assist) {
        RobEntry &e = t.rob[group[count - 1]];
        st_assists++;
        st_commit_uops++;
        AssistResult ar = executeAssist(e.uop.assist(), ctx, *aspace,
                                        *sys, GuestVirt(e.uop.ripseq));
        // The leading stores may have hit decoded code; the flush
        // below restarts fetch either way.
        pending_smc.deliver();
        if (ar.fault != GuestFault::None) {
            st_faults++;
            deliverFault(ctx, *aspace, ar.fault, insn_rip, insn_rip);
        } else {
            ctx.rip = ar.next_rip;
            st_commit_insns++;
        }
        restartThread(t, now, cycles(1));
        budget = 0;
        return true;
    }

    // Pop the group and update RIP.
    RobEntry &last = t.rob[group[count - 1]];
    ctx.rip = GuestVirt(last.uop.isBranch() ? last.actual_next
                                            : last.uop.ripseq);
    if (trace_commits) {
        std::fprintf(stderr, "[%llu] T%d commit rip=%llx next=%llx %s\n",
                     (unsigned long long)now.raw(),
                     (int)(&t - threads.data()),
                     (unsigned long long)insn_rip.raw(),
                     (unsigned long long)ctx.rip.raw(),
                     uopInfo(last.uop.op).name);
    }
    for (int n = 0; n < count; n++)
        t.rob.popFront();
    st_commit_insns++;
    budget -= count;
    t.last_commit_cycle = now;

    if (do_lockstep)
        lockstepCompare(t, now, insn_rip);

    if (pending_smc.deliver()) {
        // Committed stores hit translated code: invalidate and restart
        // the front end (our own pipeline is flushed by the hook).
        // Everything younger in flight may be stale translated code.
        restartThread(t, now, cycles(2));
        budget = 0;
    }
    return true;
}

void
OooCore::stageCommit(SimCycle now)
{
    int budget = cfg.commit_width;
    int n = (int)threads.size();
    for (int k = 0; k < n && budget > 0; k++) {
        int tid = (next_commit_thread + k) % n;
        // Keep committing groups from this thread while budget lasts.
        while (budget > 0) {
            if (!commitThread(now, threads[tid], budget))
                break;
            cycle_activity = true;
        }
    }
    if (++next_commit_thread >= n)
        next_commit_thread -= n;
}

}  // namespace ptl
