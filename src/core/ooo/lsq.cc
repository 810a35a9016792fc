/**
 * @file
 * OOO core load/store queue behaviour (Section 2.2's replay machinery
 * and Section 4.4's interlocks):
 *
 *  - loads translate through the DTLB (paying hardware-walk latency on
 *    a miss), search the store queue for older stores by physical
 *    address, forward fully-overlapping ready data, and replay on
 *    partial overlaps or (with hoisting disabled) unresolved older
 *    store addresses;
 *  - with load hoisting enabled, loads speculate past unresolved
 *    stores; a store that later resolves onto an overlapping younger
 *    issued load marks it for a flush-and-refetch at commit;
 *  - interlocked (LOCK) accesses acquire the physical-address lock in
 *    the shared interlock controller; any other thread touching the
 *    locked address replays until the owning instruction commits;
 *  - a load behind an older store with an unknown address (hoisting
 *    off) parks: its issue-queue slot sleeps until the last such
 *    store resolves its address, instead of polling;
 *  - L1D bank conflicts and MSHR exhaustion force 1-2 cycle replays.
 */

#include "core/ooo/ooocore.h"
#include "lib/logging.h"

namespace ptl {

namespace {

bool
rangesOverlap(GuestVirt a, unsigned alen, GuestVirt b, unsigned blen)
{
    return a < b + blen && b < a + alen;
}

bool
rangesOverlap(GuestPhys a, unsigned alen, GuestPhys b, unsigned blen)
{
    return a < b + blen && b < a + alen;
}

/**
 * Memory disambiguation predicate. Stores land in physical memory, so
 * two accesses conflict when their *physical* ranges overlap — a
 * virtual-only check misses stores and loads reaching one frame
 * through different mappings (the kind of aliasing the guest kernel's
 * per-task CR3 roots and the transcache tests' alias windows set up).
 * The recorded paddr covers the first page's fragment only, so the
 * virtual ranges are checked too: that catches the page-crossing tail
 * the physical range cannot represent. (Tails aliased through two
 * *different* mappings remain invisible to both checks; split accesses
 * are rare enough that the conservative pre-commit replay below makes
 * this a non-issue in practice.)
 */
bool
accessesConflict(GuestVirt a_va, GuestPhys a_paddr, unsigned a_size,
                 GuestVirt b_va, GuestPhys b_paddr, unsigned b_size)
{
    return rangesOverlap(a_paddr, a_size, b_paddr, b_size)
           || rangesOverlap(a_va, a_size, b_va, b_size);
}

}  // namespace

SimCycle
OooCore::issueLoad(SimCycle now, Thread &t, RobEntry &e)
{
    const Uop &u = e.uop;
    LsqEntry &l = t.ldq[e.lsq];
    Context &ctx = *t.ctx;

    U64 ra = (e.src[0] >= 0) ? prf[e.src[0]].value : 0;
    U64 rb = (u.rb_imm || e.src[1] < 0) ? 0 : prf[e.src[1]].value;
    GuestVirt va = GuestVirt(uopMemAddr(u, ra, rb));

    // A translation fault completes the load: commit delivers the
    // fault, and dependents wake so the pipeline drains up to it.
    auto fault_done = [&](GuestFault fault, GuestVirt at) {
        e.fault = fault;
        e.fault_addr = at;
        e.state = RobState::Done;
        if (e.phys >= 0) {
            prf[e.phys].ready = true;
            prf[e.phys].ready_cycle = now + cycles(1);
            broadcastReady(e.phys);
        }
        return LSQ_DONE;
    };

    TranslateResult tr = hierarchy->translateData(
        ctx.cr3, va, false, !ctx.kernel_mode, now);
    l.va = va;
    l.size = u.size;
    if (tr.fault != GuestFault::None) {
        l.addr_known = true;
        return fault_done(tr.fault, va);
    }
    CycleDelta latency = tr.latency;
    GuestPhys paddr = tr.paddr;
    l.paddr = paddr;
    l.addr_known = true;

    // Interlock semantics (Section 4.4): replay while another thread
    // holds the physical address; locked loads acquire the lock and
    // hold it until their x86 instruction commits. A locked load also
    // replays while *any* earlier locked instruction (even from this
    // thread) holds the address, which serializes back-to-back RMWs
    // and prevents a stale read under a lock about to be released.
    int owner = ownerId(t);
    if (interlocks->heldByOther(paddr, owner))
        return replay(ReplayCause::Interlock, now + cycles(2));
    if (u.locked && !l.lock_acquired) {
        // Program-order acquisition: a younger locked load grabbing
        // the lock ahead of an older one would deadlock against
        // in-order commit (priority inversion), so replay until every
        // older locked access in this thread has issued and acquired.
        // The older loads are the ring's entries from the head up to
        // this one.
        for (int i = t.ldq.frontSlot(); i != e.lsq; i = t.ldq.next(i)) {
            const LsqEntry &older = t.ldq[i];
            if (older.locked && !older.lock_acquired)
                return replay(ReplayCause::LockOrder, now + cycles(2));
        }
        if (interlocks->held(paddr))
            return replay(ReplayCause::LockOrder, now + cycles(2));
        bool got = interlocks->acquire(paddr, owner);
        ptl_assert(got);
        l.lock_acquired = true;
    }

    // Store queue search over the live older stores, youngest first:
    // the first fully-covering store forwards, but any older store
    // that partially overlaps (or, without hoisting, whose address is
    // still unknown) makes the load wait, so the walk goes on past a
    // forwarding hit and stops only at the first reason to wait.
    const LsqEntry *fwd = nullptr;
    for (int age = t.stq.size() - 1; age >= 0; age--) {
        const LsqEntry &s = t.stq[t.stq.slotAt(age)];
        if (s.seq > l.seq)
            continue;  // younger than the load
        if (!s.addr_known) {
            if (cfg.load_hoisting)
                continue;
        } else if (!accessesConflict(s.va, s.paddr, s.size, va, paddr,
                                     u.size)) {
            continue;
        } else if (s.paddr == paddr && s.size >= u.size) {
            if (!fwd)
                fwd = &s;
            continue;
        }
        // A partial overlap waits (polling) until the store commits;
        // an unknown address parks the load until it resolves.
        if (s.addr_known)
            return replay(ReplayCause::PartialOverlap, now + cycles(2));
        return parkLoad(t, l);
    }

    U64 value = 0;
    if (fwd) {
        st_load_forwards++;
        value = fwd->data & byteMask(u.size);
        latency += cycles((U64)cfg.lat_ld);
    } else {
        // Data cache access (physical address).
        MemResult m = hierarchy->dataAccess(paddr, false, now);
        if (m.bank_conflict)
            return replay(ReplayCause::BankConflict, now + cycles(1));
        if (m.mshr_full)
            return replay(ReplayCause::MshrFull, now + cycles(2));
        latency += m.latency;
        // Unaligned accesses crossing a line (or page) cost extra and
        // may touch a second translation.
        GuestVirt last_byte = va + u.size - 1;
        if (va.alignedDown(64) != last_byte.alignedDown(64))
            latency += cycles(1);
        if (va.vpn() != last_byte.vpn()) {
            TranslateResult tr2 = hierarchy->translateData(
                ctx.cr3, last_byte, false, !ctx.kernel_mode, now);
            if (tr2.fault != GuestFault::None)
                return fault_done(tr2.fault, last_byte);
            latency += tr2.latency;
            // Read the two fragments from their physical frames: the
            // second fragment starts at the next page's origin.
            unsigned first_len =
                (unsigned)(PAGE_SIZE - va.pageOffset());
            U64 lo = aspace->physMem().read(paddr, first_len);
            U64 hi = aspace->physMem().read(
                tr2.paddr.pageBase(), u.size - first_len);
            value = lo | (hi << (first_len * 8));
        } else {
            value = aspace->physMem().read(paddr, u.size);
        }
    }

    if (u.op == UopOp::Lds)
        value = signExtend(value, u.size);
    e.state = RobState::Done;
    if (e.phys >= 0) {
        PhysReg &reg = prf[e.phys];
        reg.value = value;
        reg.flags = 0;
        reg.ready = true;
        reg.ready_cycle =
            now + std::max(latency, cycles((U64)cfg.lat_ld));
        reg.cluster = (S8)e.cluster;
        broadcastReady(e.phys);
    }
    return LSQ_DONE;
}

SimCycle
OooCore::issueStore(SimCycle now, Thread &t, RobEntry &e)
{
    const Uop &u = e.uop;
    LsqEntry &s = t.stq[e.lsq];
    Context &ctx = *t.ctx;

    U64 ra = (e.src[0] >= 0) ? prf[e.src[0]].value : 0;
    U64 rb = (u.rb_imm || e.src[1] < 0) ? 0 : prf[e.src[1]].value;
    GuestVirt va = GuestVirt(uopMemAddr(u, ra, rb));

    TranslateResult tr = hierarchy->translateData(
        ctx.cr3, va, true, !ctx.kernel_mode, now);
    s.va = va;
    s.size = u.size;
    if (tr.fault == GuestFault::None
        && va.vpn() != (va + u.size - 1).vpn()) {
        TranslateResult tr2 = hierarchy->translateData(
            ctx.cr3, va + u.size - 1, true, !ctx.kernel_mode, now);
        if (tr2.fault != GuestFault::None)
            tr.fault = tr2.fault;
    }
    if (tr.fault != GuestFault::None) {
        e.fault = tr.fault;
        e.fault_addr = va;
        e.state = RobState::Done;
        s.addr_known = true;
        if (t.parked_loads)
            wakeParkedLoads(t, now);
        return LSQ_DONE;
    }
    s.paddr = tr.paddr;

    int owner = ownerId(t);
    if (interlocks->heldByOther(tr.paddr, owner))
        return replay(ReplayCause::Interlock, now + cycles(2));
    // A locked store runs under the lock its instruction's ld.acq
    // already holds; nothing to acquire here.

    s.data = ((e.src[2] >= 0) ? prf[e.src[2]].value : 0) & byteMask(u.size);
    s.addr_known = true;
    e.state = RobState::Done;

    // Load hoisting violation scan (Section 2.2's replay support):
    // younger loads that already executed against this address must be
    // squashed and re-executed. They sit at the LDQ ring's tail end, so
    // the walk goes back from the tail to the first older load.
    if (cfg.load_hoisting) {
        for (int age = t.ldq.size() - 1; age >= 0; age--) {
            const LsqEntry &l = t.ldq[t.ldq.slotAt(age)];
            if (l.seq < s.seq)
                break;
            if (!l.addr_known)
                continue;
            if (accessesConflict(l.va, l.paddr, l.size,
                                 s.va, s.paddr, s.size)) {
                RobEntry &le = t.rob[l.rob];
                if (le.state == RobState::Done
                    && le.fault == GuestFault::None)
                    le.hoist_violation = true;
            }
        }
    }
    if (t.parked_loads)
        wakeParkedLoads(t, now);
    return LSQ_DONE;
}

SimCycle
OooCore::parkLoad(Thread &t, LsqEntry &l)
{
    l.parked = true;
    t.parked_loads++;
    return replay(ReplayCause::UnknownStoreAddr, CYCLE_NEVER);
}

void
OooCore::wakeParkedLoads(Thread &t, SimCycle now)
{
    // Loads older than the oldest store with an unknown address wait
    // on no address; the LDQ is in program order, so stop at it.
    U64 unknown_seq = ~0ULL;
    for (int age = 0; age < t.stq.size(); age++) {
        const LsqEntry &s = t.stq[t.stq.slotAt(age)];
        if (!s.addr_known) {
            unknown_seq = s.seq;
            break;
        }
    }
    for (int age = 0; age < t.ldq.size() && t.parked_loads > 0; age++) {
        LsqEntry &l = t.ldq[t.ldq.slotAt(age)];
        if (l.seq > unknown_seq)
            break;
        if (!l.parked)
            continue;
        // Its issue-queue slot is in the queue of its cluster.
        IssueQueue &iq = queues[(size_t)t.rob[l.rob].cluster];
        int si = iqSlotOf(iq, t, l.rob);
        ptl_assert(si >= 0);
        IqEntry &slot = iq.slots[(size_t)si];
        slot.wake_cycle = now + cycles(1);
        if (slot.wake_cycle < iq.next_wake)
            iq.next_wake = slot.wake_cycle;
        t.parked_loads--;
        l.parked = false;
    }
}

}  // namespace ptl
