#include "core/seqcore.h"

#include <algorithm>
#include <bit>

#include "lib/logging.h"
#include "uop/uopexec.h"

namespace ptl {

FunctionalEngine::FunctionalEngine(Context &context, AddressSpace &addrspace,
                                   BasicBlockCache &bbs,
                                   SystemInterface &system, StatsTree &stats,
                                   const std::string &prefix)
    : ctx(&context), aspace(&addrspace), bbcache(&bbs), sys(&system),
      st_insns(stats.counter(prefix + "commit/insns")),
      st_uops(stats.counter(prefix + "commit/uops")),
      st_k8ops(stats.counter(prefix + "commit/k8ops")),
      st_modeled_cycles(stats.counter(prefix + "profile/modeled_cycles")),
      st_branches(stats.counter(prefix + "branches/total")),
      st_cond_branches(stats.counter(prefix + "branches/cond")),
      st_mispredicts(stats.counter(prefix + "branches/mispredicted")),
      st_indirect_branches(stats.counter(prefix + "branches/indirect")),
      st_indirect_mispredicts(
          stats.counter(prefix + "branches/indirect_mispredicted")),
      st_loads(stats.counter(prefix + "commit/loads")),
      st_stores(stats.counter(prefix + "commit/stores")),
      st_events(stats.counter(prefix + "commit/events_delivered")),
      st_faults(stats.counter(prefix + "commit/faults_delivered")),
      st_assists(stats.counter(prefix + "commit/assists"))
{
}

void
FunctionalEngine::attachProfiling(MemoryHierarchy *hierarchy,
                                  BranchPredictor *predictor)
{
    hier = hierarchy;
    bp = predictor;
}

void
FunctionalEngine::reposition()
{
    cur_bb = nullptr;
    uop_idx = 0;
}

bool
FunctionalEngine::reacquireBlock(GuestFault &ff)
{
    // The generation test comes first: after an invalidation cur_bb
    // may already be freed.
    if (cur_bb && bb_generation == bbcache->generation()
        && uop_idx < cur_bb->uops.size())
        return false;
    ContextCodeSource code(*aspace, *ctx);
    cur_bb = bbcache->get(code, &ff);
    uop_idx = 0;
    bb_generation = bbcache->generation();
    return true;
}

const Uop *
FunctionalEngine::peekUop()
{
    GuestFault ff = GuestFault::None;
    reacquireBlock(ff);
    return cur_bb ? &cur_bb->uops[uop_idx] : nullptr;
}

U64
FunctionalEngine::readReg(int reg) const
{
    if (reg == REG_zero || reg == REG_none)
        return 0;
    if (bit(pending_valid, (unsigned)reg))
        return pending_value[reg];
    return ctx->regs[reg];
}

U16
FunctionalEngine::readFlags(int reg) const
{
    if (reg == REG_none)
        return 0;
    if (bit(pending_hasflags, (unsigned)reg))
        return pending_flags[reg];
    return regflags[reg];
}

void
FunctionalEngine::commitPending()
{
    for (U64 m = pending_valid; m; m &= m - 1) {
        int r = std::countr_zero(m);
        ctx->setReg(r, pending_value[r]);
    }
    for (U64 m = pending_hasflags; m; m &= m - 1) {
        int r = std::countr_zero(m);
        regflags[r] = pending_flags[r];
    }
}

bool
FunctionalEngine::commitStores(int n)
{
    bool smc = false;
    for (int s = 0; s < n; s++) {
        const PendingWrite &w = stores[s];
        smc |= snoopCodeWrite(
            *sys, guestWrite(*aspace, *ctx, w.va, w.size, w.value));
    }
    return smc;
}

FunctionalEngine::StepResult
FunctionalEngine::stepInsn(SimCycle now)
{
    StepResult res;
    if (!ctx->running) {
        res.idle = true;
        return res;
    }

    // Virtual interrupt delivery between instructions (Section 2.1).
    if (ctx->event_pending && !ctx->event_mask
        && ctx->event_callback != 0) {
        deliverEvent(*ctx, *aspace);
        st_events++;
        reposition();
        res.event_delivered = true;
        return res;
    }

    // (Re)acquire the decode position.
    GuestFault ff = GuestFault::None;
    if (reacquireBlock(ff)) {
        if (!cur_bb) {
            st_faults++;
            deliverFault(*ctx, *aspace, ff, ctx->rip, ctx->rip);
            res.fault_delivered = ff;
            reposition();
            return res;
        }
        if (bp && hier) {
            // Profile the instruction fetch path once per block.
            TranslateResult t = hier->translateFetch(
                ctx->cr3, ctx->rip, !ctx->kernel_mode, now);
            if (t.fault == GuestFault::None)
                hier->fetchAccess(t.paddr, now);
        }
    }

    // The flag-group pseudo-registers always reflect current flags.
    regflags[REG_zaps] = regflags[REG_cf] = regflags[REG_of] = ctx->flags;

    pending_valid = pending_hasflags = 0;
    int mem_uops_this_insn = 0;
    int n_stores = 0;
    int n_flag_updates = 0;
    GuestVirt insn_rip = ctx->rip;
    GuestVirt next_rip;
    bool redirect = false;
    GuestFault fault = GuestFault::None;
    GuestVirt fault_addr;
    int uops_done = 0;

    size_t i = uop_idx;
    for (; i < cur_bb->uops.size(); i++) {
        const Uop &u = cur_bb->uops[i];
        uops_done++;

        if (u.isMem()) {
            GuestVirt va =
                GuestVirt(uopMemAddr(u, readReg(u.ra), readReg(u.rb)));
            if (u.isLoad()) {
                mem_uops_this_insn++;
                st_loads++;
                // Forward from this instruction's own pending stores.
                U64 value = 0;
                GuestAccess a = guestRead(*aspace, *ctx, va, u.size, value);
                if (!a.ok()) {
                    fault = a.fault;
                    fault_addr = va;
                    break;
                }
                for (int s = 0; s < n_stores; s++) {
                    const PendingWrite &w = stores[s];
                    if (w.va == va && w.size >= u.size)
                        value = w.value & byteMask(u.size);
                }
                if (hier) {
                    TranslateResult t = hier->translateData(
                        ctx->cr3, va, false, !ctx->kernel_mode, now);
                    if (t.fault == GuestFault::None) {
                        MemResult m = hier->dataAccess(t.paddr, false, now,
                                                       true);
                        // Analytic stall: miss penalty with a 2x
                        // memory-level-parallelism discount (the real
                        // OOO K8 overlaps misses); hits are covered by
                        // the pipelined base throughput.
                        res.mem_stall +=
                            t.latency
                            + (m.l1_hit ? cycles(0) : m.latency / 2);
                    }
                }
                if (u.op == UopOp::Lds)
                    value = signExtend(value, u.size);
                pending_valid |= U64(1) << u.rd;
                pending_value[u.rd] = value;
                if (u.eom)
                    break;
            } else {
                mem_uops_this_insn++;
                st_stores++;
                // Validate both pages' translations now; apply at EOM.
                const GuestVirt last = va + u.size - 1;
                fault_addr = va;
                fault = guestTranslate(*aspace, *ctx, va,
                                       MemAccess::Write).fault;
                if (fault == GuestFault::None && last.vpn() != va.vpn()) {
                    fault_addr = last;
                    fault = guestTranslate(*aspace, *ctx, last,
                                           MemAccess::Write).fault;
                }
                if (fault != GuestFault::None)
                    break;
                if (hier) {
                    TranslateResult t = hier->translateData(
                        ctx->cr3, va, true, !ctx->kernel_mode, now);
                    if (t.fault == GuestFault::None) {
                        hier->dataAccess(t.paddr, true, now, true);
                        // Stores retire off the critical path; only
                        // the translation stall is architectural.
                        res.mem_stall += t.latency;
                    }
                }
                ptl_assert(n_stores < (int)MAX_BB_UOPS);
                stores[n_stores++] =
                    {va, readReg(u.rc) & byteMask(u.size), u.size};
                if (u.eom)
                    break;
            }
            continue;
        }

        if (u.isAssist()) {
            // Assists are the final uop: commit earlier effects first.
            // Those stores, or the assist, may free this block (SMC):
            // read the uop first, drop the block after.
            ptl_assert(u.eom);
            const AssistId assist = u.assist();
            const GuestVirt ripseq = GuestVirt(u.ripseq);
            commitPending();
            commitStores(n_stores);
            n_stores = 0;
            pending_valid = pending_hasflags = 0;
            st_assists++;
            AssistResult ar =
                executeAssist(assist, *ctx, *aspace, *sys, ripseq);
            if (bb_generation != bbcache->generation())
                reposition();
            if (ar.fault != GuestFault::None) {
                fault = ar.fault;
                fault_addr = insn_rip;
                break;
            }
            next_rip = ar.next_rip;
            redirect = true;
            if (ar.blocked)
                res.blocked_now = true;
            break;
        }

        UopOutcome out = executeUop(u, readReg(u.ra), readReg(u.rb),
                                    readReg(u.rc), readFlags(u.rf),
                                    readFlags(u.ra), readFlags(u.rb),
                                    readFlags(u.rc));
        if (out.fault != GuestFault::None) {
            fault = out.fault;
            fault_addr = insn_rip;
            break;
        }

        if (u.isBranch()) {
            ptl_assert(u.eom);
            st_branches++;
            if (u.op == UopOp::BrCC) {
                st_cond_branches++;
                if (bp) {
                    BranchPrediction p = bp->predict(u.rip);
                    if (p.taken != out.taken) {
                        st_mispredicts++;
                        // Analytic timing: redirect bubble.
                        res.mem_stall += cycles(10);
                    }
                    bp->resolve(u.rip, p, out.taken);
                }
            } else if (u.op == UopOp::Jmp) {
                st_indirect_branches++;
                if (bp) {
                    U64 predicted = u.hint_ret ? bp->popReturn()
                                               : bp->predictTarget(u.rip);
                    if (predicted != out.value)
                        st_indirect_mispredicts++;
                    if (!u.hint_ret)
                        bp->updateTarget(u.rip, out.value);
                }
            }
            if (bp && u.hint_call)
                bp->pushReturn(u.ripseq);
            if (out.taken || u.op == UopOp::Jmp) {
                next_rip = GuestVirt(out.value);
                redirect = true;
            } else {
                next_rip = GuestVirt((U64)u.imm2);
            }
            break;  // branches always end their instruction
        }

        if (u.writesRd()) {
            pending_valid |= U64(1) << u.rd;
            pending_value[u.rd] = out.value;
        }
        if (u.setflags) {
            ptl_assert(n_flag_updates < (int)MAX_BB_UOPS);
            flag_updates[n_flag_updates++] = {out.flags, u.setflags};
            if (u.rd != REG_none && u.rd != REG_zero) {
                pending_hasflags |= U64(1) << u.rd;
                pending_flags[u.rd] = out.flags;
            }
        }
        if (u.eom)
            break;
    }

    if (fault != GuestFault::None) {
        st_faults++;
        res.fault_delivered = fault;
        deliverFault(*ctx, *aspace, fault, insn_rip, fault_addr);
        reposition();
        return res;
    }

    // ---- atomic commit of this x86 instruction ----
    commitPending();
    for (int f = 0; f < n_flag_updates; f++)
        ctx->applyFlags(flag_updates[f].flags, flag_updates[f].setmask);

    // Capture block-relative facts before store commit: an SMC store
    // below may invalidate cur_bb (repositioning this engine), and an
    // assist above may already have done so.
    GuestVirt fall_rip;
    bool more_in_block = false;
    if (cur_bb != nullptr) {
        fall_rip = GuestVirt(
            cur_bb->uops[std::min(i, cur_bb->uops.size() - 1)].ripseq);
        more_in_block = (i + 1 < cur_bb->uops.size());
    }

    bool smc = commitStores(n_stores);

    st_insns++;
    st_uops += (U64)uops_done;
    // K8 "macro-op" accounting: the K8 front end fuses a memory access
    // with its consuming/producing ALU operation into one macro-op
    // ("uop triads"), so its op counters read lower than PTLsim's
    // discrete uop counts (the paper's +31% uop row).
    st_k8ops += (U64)std::max(1, uops_done - mem_uops_this_insn);
    if (hier) {
        // First-order analytic timing for the profiling/reference
        // trials (stands in for silicon's measured cycle counter):
        // macro-ops retire at a sustained ~1.5/cycle (midway between
        // the K8's 3-wide peak and typical integer-code throughput),
        // plus cache/TLB/mispredict stall cycles reported by the
        // structure models. Indicative only — see EXPERIMENTS.md.
        int ops = std::max(1, uops_done - mem_uops_this_insn);
        U64 base = (U64)std::max(1, (ops * 2 + 2) / 3);
        st_modeled_cycles += base + res.mem_stall.raw();
    }
    res.insns = 1;
    res.uops = uops_done;

    if (redirect || next_rip != GuestVirt(0)) {
        ctx->rip = next_rip;
    } else {
        // Non-branch EOM: fall through sequentially.
        ctx->rip = fall_rip;
    }

    // Advance within the block or drop the position.
    if (!redirect && more_in_block && !smc && cur_bb != nullptr) {
        uop_idx = i + 1;
    } else {
        reposition();
    }
    return res;
}

// ---------------------------------------------------------------------
// SeqCore
// ---------------------------------------------------------------------

SeqCore::SeqCore(const CoreBuildParams &params)
    : contexts(params.contexts), hierarchy(params.hierarchy)
{
    ptl_assert(hierarchy != nullptr);
    predictor = std::make_unique<BranchPredictor>(*params.config,
                                                  *params.stats,
                                                  params.prefix);
    for (Context *ctx : contexts) {
        engines.push_back(std::make_unique<FunctionalEngine>(
            *ctx, *params.aspace, *params.bbcache, *params.sys,
            *params.stats, params.prefix));
        engines.back()->attachProfiling(hierarchy, predictor.get());
        stall_until.push_back(SimCycle(0));
    }
}

void
SeqCore::cycle(SimCycle now)
{
    // Round-robin across hardware threads, one instruction at a time;
    // memory stalls show up as per-thread stall windows.
    for (size_t n = 0; n < engines.size(); n++) {
        size_t t = (next_thread + n) % engines.size();
        if (!contexts[t]->running || stall_until[t] > now)
            continue;
        FunctionalEngine::StepResult r = engines[t]->stepInsn(now);
        stall_until[t] = now + cycles((U64)std::max(1, r.uops))
                         + r.mem_stall;
        next_thread = t + 1;
        return;
    }
}

bool
SeqCore::allIdle() const
{
    for (const Context *ctx : contexts) {
        if (ctx->running)
            return false;
    }
    return true;
}

void
SeqCore::flushPipeline()
{
    for (auto &e : engines)
        e->reposition();
}

void
SeqCore::flushTlbs()
{
    hierarchy->flushTlbs();
}

void
SeqCore::resetMicroarch(SimCycle now)
{
    flushPipeline();
    hierarchy->flushTlbs();
    hierarchy->flushCaches();
    predictor->reset();
    resetTimebase(now);
}

void
SeqCore::resetTimebase(SimCycle /*now*/)
{
    // Per-thread stall windows are absolute cycle stamps; after a time
    // warp they must not outlive the old clock. Same for the memory
    // hierarchy's in-flight miss buffers.
    std::fill(stall_until.begin(), stall_until.end(), SimCycle(0));
    hierarchy->resetTimebase();
}

void
registerSeqCoreModel()
{
    registerCoreModel("seq", [](const CoreBuildParams &p) {
        return std::make_unique<SeqCore>(p);
    });
}

}  // namespace ptl
