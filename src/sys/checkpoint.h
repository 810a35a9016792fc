/**
 * @file
 * Domain checkpoint and restore.
 *
 * Section 4.2's record-and-replay flow starts from "a checkpoint of
 * the target machine's physical memory and register state". We capture
 * exactly that — all machine frames, every VCPU Context, and the
 * virtual-time state — plus the guest-visible pending work, each piece
 * taken from the subsystem that owns it: scheduled timer sends from
 * EventChannels and the devices' in-flight DMA/packet queues. The
 * EventQueue itself is derived state: restore drops it wholesale and
 * each subsystem re-arms its own events from the serialized payloads,
 * so a checkpoint taken mid-I/O resumes with identical completion
 * timing.
 *
 * MachineCheckpoint carries a serialize/restore pair, which puts it
 * under simlint's checkpoint-coverage rule: every data member added
 * here must be written by serialize() AND consumed by restore() (or
 * carry an explicit `// simlint: transient` waiver), so a field can
 * never again be captured but silently dropped on restore.
 */

#ifndef PTLSIM_SYS_CHECKPOINT_H_
#define PTLSIM_SYS_CHECKPOINT_H_

#include <vector>

#include "core/context.h"
#include "sys/devices.h"

namespace ptl {

class Machine;

struct MachineCheckpoint
{
    std::vector<U8> memory;         ///< all machine frames
    std::vector<Context> contexts;  ///< per-VCPU architectural state
    SimCycle cycle;
    CycleDelta hidden_cycles;       ///< TSC-offset state
    SimCycle last_snapshot;         ///< periodic-snapshot phase

    // Guest-visible pending work (in-flight at capture time).
    std::vector<TimerEventRecord> timer_events;
    std::vector<VirtualDisk::Pending> disk_pending;
    std::vector<VirtualNet::Packet> net_pending;
    std::vector<SimCycle> net_last_ready;  ///< per-endpoint FIFO floors
    std::vector<std::vector<U8>> net_rx;  ///< delivered, unread bytes
    std::vector<U64> evtchn_pending;  ///< raised, unconsumed port masks

    /** Capture the domain's state into this checkpoint (in-flight
     *  device work and scheduled timer deliveries included). */
    void serialize(Machine &machine);

    /**
     * Restore this checkpoint into `machine`: memory, contexts,
     * virtual time, pending timer deliveries and device queues roll
     * back; translated code, scheduled bookkeeping events and core
     * pipeline state are dropped and rebuilt (they are derived state).
     */
    void restore(Machine &machine) const;
};

/** Capture the domain's state at the current point. */
MachineCheckpoint captureCheckpoint(Machine &machine);

/** Restore a previously captured checkpoint. */
void restoreCheckpoint(Machine &machine, const MachineCheckpoint &ckpt);

}  // namespace ptl

#endif  // PTLSIM_SYS_CHECKPOINT_H_
