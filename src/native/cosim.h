/**
 * @file
 * Native-mode co-simulation validation (Section 2.3).
 *
 * PTLsim's signature capability: a virtual machine can be moved
 * between native execution and the cycle-accurate models at arbitrary
 * instruction boundaries, and this transition must be architecturally
 * invisible. This module provides the validation machinery:
 *
 *  - compareContexts(): field-by-field architectural state diff;
 *  - hashGuestMemory(): whole-memory fingerprint;
 *  - ModeSwitchValidator: runs a user-built machine twice — once
 *    purely in one mode, once ping-ponging between native and
 *    simulation every N cycles — and verifies the final architectural
 *    state and memory image are identical (the machine must be
 *    deterministic, i.e. -maskints style);
 *  - findDivergenceInsn(): the paper's self-debugging binary search —
 *    given two run configurations, find the first committed
 *    instruction count at which their architectural states diverge.
 */

#ifndef PTLSIM_NATIVE_COSIM_H_
#define PTLSIM_NATIVE_COSIM_H_

#include <functional>
#include <memory>
#include <string>

#include "sys/machine.h"

namespace ptl {

/** Result of an architectural state comparison. */
struct ContextDiff
{
    bool equal = true;
    std::string description;   ///< first differing field, if any
};

/** Compare the architectural (guest-visible) parts of two contexts. */
ContextDiff compareContexts(const Context &a, const Context &b);

/** FNV-1a hash over all guest machine frames. */
U64 hashGuestMemory(const PhysMem &mem);

/** Builds a fully configured machine ready to run. */
using MachineFactory = std::function<std::unique_ptr<Machine>()>;

struct CosimResult
{
    bool equal = false;
    std::string diff;
    U64 switches = 0;      ///< mode transitions performed
    U64 insns = 0;
};

/**
 * Run two identically-built machines: the reference entirely in
 * `ref_mode`, the subject alternating modes every `switch_cycles`.
 * Both run to shutdown (or `budget` cycles); final VCPU state and
 * memory must match exactly.
 */
CosimResult validateModeSwitching(const MachineFactory &factory,
                                  Machine::Mode ref_mode,
                                  U64 switch_cycles,
                                  U64 budget = 1ULL << 34);

/**
 * Self-debugging search (Section 2.3): find the smallest committed-
 * instruction count N such that running configuration A for N
 * instructions and configuration B for N instructions yields different
 * architectural state. Returns ~0 if they agree up to `max_insns`.
 * Factories must build deterministic machines.
 */
U64 findDivergenceInsn(const MachineFactory &factory_a,
                       const MachineFactory &factory_b, U64 max_insns);

}  // namespace ptl

#endif  // PTLSIM_NATIVE_COSIM_H_
