#include "sys/baremachine.h"

#include <algorithm>

#include "lib/logging.h"
#include "verify/verify.h"
#include "xasm/assembler.h"

namespace ptl {

BareMachine::BareMachine(const SimConfig &config)
    : cfg(config),
      physmem(cfg.guest_mem_bytes, cfg.seed, cfg.shuffle_mfns),
      aspace(physmem),
      bbcache(stats_tree.counter("bbcache/hits"),
              stats_tree.counter("bbcache/misses"),
              stats_tree.counter("bbcache/smc_invalidations")),
      interlock_ctrl(stats_tree)
{
    cfg.validate();
    aspace.attachStats(stats_tree);
    aspace.transCache().setShadowEnabled(verifyRequested(cfg));
    cr3 = aspace.createRoot();
    for (int i = 0; i < cfg.vcpu_count; i++) {
        contexts.push_back(std::make_unique<Context>());
        Context &ctx = *contexts.back();
        ctx.vcpu_id = i;
        ctx.cr3 = cr3;
        ctx.kernel_mode = true;   // bare metal: hlt is legal
    }
}

void
BareMachine::map(U64 va, U64 bytes, U64 flags)
{
    aspace.mapRange(cr3, GuestVirt(va), bytes, flags);
}

void
BareMachine::writeGuest(U64 va, const void *data, size_t n)
{
    GuestCopy g =
        guestCopyOut(aspace, *contexts[0], GuestVirt(va), data, n, this);
    if (!g.ok())
        fatal("guest write of %zu bytes at %#llx faults", n,
              (unsigned long long)va);
}

U64
BareMachine::readGuest(U64 va, unsigned bytes)
{
    U64 v = 0;
    if (!guestRead(aspace, *contexts[0], GuestVirt(va), bytes, v).ok())
        fatal("guest read of %u bytes at %#llx faults", bytes,
              (unsigned long long)va);
    return v;
}

void
BareMachine::load(Assembler &assembler)
{
    std::vector<U8> image = assembler.finalize();
    writeGuest(assembler.baseVa(), image.data(), image.size());
    for (auto &ctx : contexts)
        ctx->rip = GuestVirt(assembler.baseVa());
    // Cores already built restart from the new RIP.
    for (auto &core : hw.cores)
        core->flushPipeline();
}

void
BareMachine::finalizeCores()
{
    ptl_assert(hw.cores.empty());
    hw = assembleCores(cfg, contexts, aspace, bbcache, *this,
                       interlock_ctrl, stats_tree);
}

bool
BareMachine::allIdle() const
{
    for (const auto &core : hw.cores) {
        if (!core->allIdle())
            return false;
    }
    return true;
}

U64
BareMachine::run(U64 max_cycles)
{
    ptl_assert(!hw.cores.empty());
    const SimCycle start = now;
    const SimCycle deadline = start + cycles(max_cycles);
    while (now < deadline && !allIdle())
        now = stepCores(hw, now, deadline, [](CycleDelta) {});
    return (now - start).raw();
}

}  // namespace ptl
