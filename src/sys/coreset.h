/**
 * @file
 * Core assembly shared by Machine and BareMachine: the one place that
 * decides how a SimConfig's VCPUs become core models.
 *
 *  - VCPUs are split across cores smt_threads at a time: with
 *    smt_threads > 1 a single core hosts several VCPUs as hardware
 *    threads; otherwise each VCPU gets its own core;
 *  - a coherence controller joins the cores when there is more than
 *    one of them, or when MOESI is selected;
 *  - each core gets its own MemoryHierarchy (composed from config here
 *    and handed to the core as a narrow handle), a distinct core_id
 *    and, when verification is requested, an invariant auditor.
 */

#ifndef PTLSIM_SYS_CORESET_H_
#define PTLSIM_SYS_CORESET_H_

#include <memory>
#include <vector>

#include "core/coreapi.h"
#include "mem/coherence.h"
#include "mem/hierarchy.h"

namespace ptl {

/** A machine's cores and the structures only they use. */
struct CoreSet
{
    std::unique_ptr<CoherenceController> coherence;
    // Declared before `cores` so cores are destroyed first.
    std::vector<std::unique_ptr<MemoryHierarchy>> hierarchies;
    std::vector<std::unique_ptr<CoreModel>> cores;
};

/** Build the config.core models for `vcpus`, all sharing the
 *  machine's address space, bbcache, system interface, interlocks and
 *  statistics tree. `cfg` must outlive the cores. */
CoreSet assembleCores(const SimConfig &cfg,
                      const std::vector<std::unique_ptr<Context>> &vcpus,
                      AddressSpace &aspace, BasicBlockCache &bbcache,
                      SystemInterface &sys, InterlockController &interlocks,
                      StatsTree &stats);

}  // namespace ptl

#endif  // PTLSIM_SYS_CORESET_H_
