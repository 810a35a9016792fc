#include "native/cosim.h"

#include "lib/logging.h"

namespace ptl {

ContextDiff
compareContexts(const Context &a, const Context &b)
{
    ContextDiff out;
    auto fail = [&](const std::string &what, U64 va, U64 vb) {
        out.equal = false;
        out.description = strprintf("%s: %llx vs %llx", what.c_str(),
                                    (unsigned long long)va,
                                    (unsigned long long)vb);
    };
    for (int r = 0; r < NUM_UOP_REGS; r++) {
        if (r >= REG_temp0 && r <= REG_temp7)
            continue;  // microcode temps are not architectural
        if (r == REG_zero || r == REG_none || r == REG_reserved41
            || r == REG_zaps || r == REG_cf || r == REG_of)
            continue;
        if (a.regs[r] != b.regs[r]) {
            fail(uopRegName(r), a.regs[r], b.regs[r]);
            return out;
        }
    }
    if (a.rip != b.rip) {
        fail("rip", a.rip.raw(), b.rip.raw());
        return out;
    }
    if (a.flags != b.flags) {
        fail("flags", a.flags, b.flags);
        return out;
    }
    if (a.kernel_mode != b.kernel_mode) {
        fail("kernel_mode", a.kernel_mode, b.kernel_mode);
        return out;
    }
    if (a.cr3 != b.cr3) {
        fail("cr3", a.cr3.raw(), b.cr3.raw());
        return out;
    }
    if (a.event_mask != b.event_mask) {
        fail("event_mask", a.event_mask, b.event_mask);
        return out;
    }
    if (a.x87_top != b.x87_top) {
        fail("x87_top", (U64)a.x87_top, (U64)b.x87_top);
        return out;
    }
    for (int i = 0; i < a.x87_top; i++) {
        if (a.x87_stack[i] != b.x87_stack[i]) {
            fail("x87_stack", a.x87_stack[i], b.x87_stack[i]);
            return out;
        }
    }
    return out;
}

U64
hashGuestMemory(const PhysMem &mem)
{
    U64 h = 0xcbf29ce484222325ULL;
    for (U64 mfn = 0; mfn < mem.frameCount(); mfn++) {
        const U8 *frame = mem.frameData(Pfn(mfn));
        for (size_t i = 0; i < PAGE_SIZE; i++) {
            h ^= frame[i];
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

CosimResult
validateModeSwitching(const MachineFactory &factory, Machine::Mode ref_mode,
                      U64 switch_cycles, U64 budget)
{
    CosimResult out;

    std::unique_ptr<Machine> ref = factory();
    ref->setMode(ref_mode);
    U64 spent = 0;
    while (spent < budget) {
        Machine::RunResult r = ref->run(budget - spent);
        spent += r.cycles;
        if (r.shutdown || r.stalled)
            break;
    }

    std::unique_ptr<Machine> subject = factory();
    Machine::Mode mode = Machine::Mode::Simulation;
    spent = 0;
    while (spent < budget) {
        subject->setMode(mode);
        out.switches++;
        Machine::RunResult r = subject->run(switch_cycles);
        spent += r.cycles;
        if (r.shutdown || r.stalled)
            break;
        mode = (mode == Machine::Mode::Simulation)
                   ? Machine::Mode::Native
                   : Machine::Mode::Simulation;
    }

    out.insns = subject->totalCommittedInsns();
    ContextDiff diff = compareContexts(ref->vcpu(0), subject->vcpu(0));
    if (!diff.equal) {
        out.diff = "context: " + diff.description;
        return out;
    }
    if (hashGuestMemory(ref->physMem())
        != hashGuestMemory(subject->physMem())) {
        out.diff = "guest memory images differ";
        return out;
    }
    out.equal = true;
    return out;
}

U64
findDivergenceInsn(const MachineFactory &factory_a,
                   const MachineFactory &factory_b, U64 max_insns)
{
    // Step exactly N instructions on the functional engine (the paper
    // performs this comparison at single-instruction granularity by
    // re-entering native mode at different points).
    auto step_exact = [](Machine &m, U64 n) {
        FunctionalEngine &engine = m.nativeEngine(0);
        U64 done = 0;
        while (done < n) {
            FunctionalEngine::StepResult r = engine.stepInsn(SimCycle(done));
            if (r.idle)
                break;
            done += (U64)r.insns;
            if (r.insns == 0 && !r.event_delivered
                && r.fault_delivered == GuestFault::None)
                break;
        }
        return done;
    };
    auto agree_at = [&](U64 n) {
        std::unique_ptr<Machine> ma = factory_a();
        std::unique_ptr<Machine> mb = factory_b();
        U64 ra = step_exact(*ma, n);
        U64 rb = step_exact(*mb, n);
        if (ra != rb)
            return false;
        return compareContexts(ma->vcpu(0), mb->vcpu(0)).equal;
    };
    if (agree_at(max_insns))
        return ~0ULL;
    // Binary search the first divergence point, as the paper describes
    // doing with repeated native-mode switches.
    U64 lo = 0, hi = max_insns;  // agree at lo, diverge by hi
    while (lo + 1 < hi) {
        U64 mid = lo + (hi - lo) / 2;
        if (agree_at(mid))
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

}  // namespace ptl
