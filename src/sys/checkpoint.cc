#include "sys/checkpoint.h"

#include "lib/archive.h"
#include "lib/logging.h"
#include "sys/machine.h"

namespace ptl {

namespace {

/**
 * The machine walk: each owner of domain state in a fixed order, then
 * the Machine's snapshot phase and run mode through its accessors (it
 * has no visit, so its control and scratch members stay out).
 */
struct MachineWalk
{
    Machine &machine;
    SimCycle last_snapshot;
    Machine::Mode mode;

    void
    visit(Archive &ar)
    {
        ar.tag(0x3AC4'0001);  // machine image, layout version 1
        int vcpus = machine.vcpuCount();
        ar(vcpus);
        if (vcpus != machine.vcpuCount())
            fatal("checkpoint: image of a %d-VCPU machine, this one has "
                  "%d VCPUs", vcpus, machine.vcpuCount());
        machine.physMem().visit(ar);
        for (int i = 0; i < vcpus; i++)
            machine.vcpu(i).visit(ar);
        machine.timeKeeper().visit(ar);
        machine.eventChannels().visit(ar);
        machine.disk().visit(ar);
        machine.net().visit(ar);
        ar(last_snapshot, mode);
    }
};

}  // namespace

MachineCheckpoint
captureCheckpoint(Machine &machine)
{
    MachineWalk walk{machine, machine.lastSnapshotCycle(), machine.mode()};
    MachineCheckpoint ckpt = Archive::save(walk);
    // Cache, TLB and predictor contents are never captured, so the
    // live machine is quiesced too: it resumes from the same cold
    // point a restore does, which keeps round trips cycle-exact.
    machine.flushCores();
    return ckpt;
}

void
restoreCheckpoint(Machine &machine, const MachineCheckpoint &ckpt)
{
    MachineWalk walk{machine, SimCycle(0), Machine::Mode::Simulation};
    Archive::load(walk, ckpt);
    // Drop derived state: translated code, scheduled events (each
    // owner re-arms its loaded work) and in-flight pipeline state
    // (flushCores re-syncs the cores from the loaded contexts).
    machine.bbCache().invalidateAll();
    machine.addressSpace().flushTranslationCache();
    machine.setMode(walk.mode);
    machine.rearmAfterRestore(walk.last_snapshot);
    machine.flushCores();
}

}  // namespace ptl
