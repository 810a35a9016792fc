/**
 * @file
 * Domain checkpoint and restore.
 *
 * Section 4.2's record-and-replay flow starts from "a checkpoint of
 * the target machine's physical memory and register state". A
 * MachineCheckpoint is one word image (lib/archive.h) of exactly that
 * plus virtual time, the run mode and the guest-visible pending work.
 * Each owner of that state saves and loads itself through its one
 * visit(Archive &) — PhysMem, every Context, TimeKeeper, EventChannels,
 * VirtualDisk and VirtualNet — and simlint's checkpoint-coverage rule
 * checks each visit against the owner's members. The EventQueue is
 * derived state: restore drops it and each owner re-arms its loaded
 * work, so a checkpoint taken mid-I/O resumes with identical
 * completion timing.
 */

#ifndef PTLSIM_SYS_CHECKPOINT_H_
#define PTLSIM_SYS_CHECKPOINT_H_

#include <vector>

#include "lib/bitops.h"

namespace ptl {

class Machine;

/** A captured machine: its word image. */
using MachineCheckpoint = std::vector<U64>;

/** Capture the domain's state at the current point. */
MachineCheckpoint captureCheckpoint(Machine &machine);

/**
 * Restore a previously captured checkpoint. Translated code, scheduled
 * bookkeeping events and core pipeline state are dropped and rebuilt
 * (they are derived state). An image of another model or machine
 * shape ends in fatal().
 */
void restoreCheckpoint(Machine &machine, const MachineCheckpoint &ckpt);

}  // namespace ptl

#endif  // PTLSIM_SYS_CHECKPOINT_H_
