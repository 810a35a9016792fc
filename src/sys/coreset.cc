#include "sys/coreset.h"

#include <algorithm>
#include <string>

#include "verify/verify.h"

namespace ptl {

CoreSet
assembleCores(const SimConfig &cfg,
              const std::vector<std::unique_ptr<Context>> &vcpus,
              AddressSpace &aspace, BasicBlockCache &bbcache,
              SystemInterface &sys, InterlockController &interlocks,
              StatsTree &stats)
{
    CoreSet set;
    const int vcpu_count = (int)vcpus.size();
    const int threads_per_core = std::max(1, cfg.smt_threads);
    const int core_count =
        (vcpu_count + threads_per_core - 1) / threads_per_core;
    if (core_count > 1 || cfg.coherence == CoherenceKind::Moesi) {
        set.coherence = std::make_unique<CoherenceController>(
            cfg.coherence, cfg.interconnect_latency, stats);
    }
    for (int c = 0; c < core_count; c++) {
        CoreBuildParams params;
        params.config = &cfg;
        for (int t = 0; t < threads_per_core; t++) {
            int v = c * threads_per_core + t;
            if (v < vcpu_count)
                params.contexts.push_back(vcpus[v].get());
        }
        params.aspace = &aspace;
        params.bbcache = &bbcache;
        params.sys = &sys;
        params.stats = &stats;
        params.prefix = "core" + std::to_string(c) + "/";
        params.coherence = set.coherence.get();
        params.interlocks = &interlocks;
        params.core_id = c;
        // The hierarchy composition (cache geometry, replacement
        // policies, the memory backend) is pure config; the core
        // receives only the narrow handle.
        set.hierarchies.push_back(std::make_unique<MemoryHierarchy>(
            cfg, aspace, stats, params.prefix, set.coherence.get()));
        params.hierarchy = set.hierarchies.back().get();
        set.cores.push_back(createCoreModel(cfg.core, params));
        // Verification is opt-in wiring done here, at machine assembly,
        // so the core layer itself never depends on src/verify.
        set.cores.back()->attachAuditor(
            makeVerifyAuditor(cfg, stats, params.prefix));
    }
    return set;
}

}  // namespace ptl
