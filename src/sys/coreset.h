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

#include <algorithm>
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

/**
 * One step of a loop that drives `cores` at cycle `now`, ending no
 * later than `limit` (> now). When every core's quiescedUntil() lies
 * past `now`, the step is the whole stretch up to the earliest answer
 * (or `limit`), applied with one skipQuiesced() per core; otherwise it
 * is one cycle() per core. `account(span)` runs first, while the
 * contexts still show the state the step starts from. Returns the
 * cycle after the step.
 */
template <typename Account>
SimCycle
stepCores(CoreSet &cores, SimCycle now, SimCycle limit, Account &&account)
{
    SimCycle until = limit;
    for (auto &core : cores.cores)
        until = std::min(until, core->quiescedUntil(now));
    if (until > now) {
        account(until - now);
        for (auto &core : cores.cores)
            core->skipQuiesced(now, until);
        return until;
    }
    account(cycles(1));
    for (auto &core : cores.cores)
        core->cycle(now);
    return now + cycles(1);
}

}  // namespace ptl

#endif  // PTLSIM_SYS_CORESET_H_
