/**
 * @file
 * Per-layer probes: fixed-work calls into one layer's public functions,
 * on inputs generated from the workload and the seed. Every repetition
 * builds fresh layer state, and each figure is the median over the
 * repetitions, in host nanoseconds per operation.
 */

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "workloads.h"

namespace perfbench {

struct ProbeResults
{
    double eventq_ns_per_event = 0;   ///< EventQueue::schedule + runDue
    double translate_ns_per_insn = 0; ///< cold BasicBlockCache::get
    double bb_lookup_ns = 0;          ///< the same gets, warm
    double exec_ns_per_uop = 0;       ///< executeUop over those uops
    double access_ns_resident = 0;    ///< dataAccess, set inside L1
    double access_ns_spill = 0;       ///< dataAccess, set 8x the L2
    double translate_ns = 0;          ///< translateData, mostly misses
    double backend_ns = 0;            ///< MemBackend::request
    double ns_per_branch = 0;         ///< predict + resolve
};

/**
 * Run every probe. `domain` is a freshly built (not yet run) domain of
 * the workload: its user text feeds the decode, uop and branch probes
 * and its configuration builds the memory-side structures.
 */
ProbeResults runProbes(Domain &domain, U64 seed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
