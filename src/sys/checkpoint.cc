#include "sys/checkpoint.h"

#include "lib/logging.h"
#include "sys/machine.h"

namespace ptl {

void
MachineCheckpoint::serialize(Machine &machine)
{
    memory = machine.physMem().rawBytes();
    for (int i = 0; i < machine.vcpuCount(); i++)
        contexts.push_back(machine.vcpu(i));
    cycle = machine.timeKeeper().cycle();
    hidden_cycles = machine.timeKeeper().hiddenCycles();
    last_snapshot = machine.lastSnapshotCycle();
    // Pending guest-visible work, from the subsystem that owns it.
    timer_events = machine.eventChannels().pendingSends();
    const std::deque<VirtualDisk::Pending> &dp =
        machine.disk().pendingTransfers();
    disk_pending.assign(dp.begin(), dp.end());
    const std::deque<VirtualNet::Packet> &np = machine.net().inFlight();
    net_pending.assign(np.begin(), np.end());
    net_last_ready = machine.net().lastReady();
    for (const std::deque<U8> &q : machine.net().rxQueues())
        net_rx.emplace_back(q.begin(), q.end());
    evtchn_pending = machine.eventChannels().pendingMasks();
    // Quiesce the microarchitecture on the live machine too: cache,
    // TLB, and predictor contents are never serialized, so the only
    // way a restore can be cycle-exact is for the capture side to
    // resume from the same cold-microarch point the restore side will.
    machine.flushCores();
}

void
MachineCheckpoint::restore(Machine &machine) const
{
    ptl_assert((int)contexts.size() == machine.vcpuCount());
    machine.physMem().restoreRawBytes(memory);
    for (int i = 0; i < machine.vcpuCount(); i++)
        machine.vcpu(i) = contexts[i];
    // Roll virtual time back to the capture point (hidden TSC gap
    // included).
    machine.timeKeeper().restore(cycle, hidden_cycles);
    // Derived state: translated code and all in-flight pipeline state
    // (flushCores also re-syncs the cores' architectural register
    // files from the restored contexts).
    machine.bbCache().invalidateAll();
    machine.addressSpace().flushTranslationCache();
    // Drop every scheduled event, re-arm the snapshot cadence at its
    // captured phase, then rebuild pending guest-visible work from the
    // serialized payloads.
    machine.rearmAfterRestore(last_snapshot);
    machine.eventChannels().restorePendingSends(timer_events);
    machine.disk().restorePending(disk_pending);
    machine.net().restorePending(net_pending, net_last_ready);
    machine.net().restoreRx(net_rx);
    machine.eventChannels().restorePendingMasks(evtchn_pending);
    machine.flushCores();
}

MachineCheckpoint
captureCheckpoint(Machine &machine)
{
    MachineCheckpoint ckpt;
    ckpt.serialize(machine);
    return ckpt;
}

void
restoreCheckpoint(Machine &machine, const MachineCheckpoint &ckpt)
{
    ckpt.restore(machine);
}

}  // namespace ptl
