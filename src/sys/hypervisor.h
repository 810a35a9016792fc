/**
 * @file
 * The hypervisor model: PTLsim/X's view of Xen.
 *
 * Implements the SystemInterface that microcode assists call into:
 * hypercalls, the virtualized TSC, VCPU blocking, and the ptlcall
 * breakout. This is the in-process equivalent of the PTLsim-enhanced
 * Xen hypervisor plus the PTLmon domain-0 proxy of Section 4 — console
 * writes, device I/O and timer programming all terminate here.
 */

#ifndef PTLSIM_SYS_HYPERVISOR_H_
#define PTLSIM_SYS_HYPERVISOR_H_

#include <functional>
#include <string>
#include <vector>

#include "core/context.h"
#include "decode/bbcache.h"
#include "sys/devices.h"
#include "sys/events.h"
#include "kernel/hypercalls.h"
#include "sys/timekeeper.h"

namespace ptl {

/** A recorded ptlcall marker (benchmark phase boundaries). */
struct PtlMarker
{
    SimCycle cycle;
    U64 id;
};

class Hypervisor : public SystemInterface
{
  public:
    Hypervisor(TimeKeeper &time, EventChannels &events, Console &console,
               VirtualNet &net, AddressSpace &aspace,
               BasicBlockCache &bbcache, StatsTree &stats);

    /** The disk, built after this hypervisor (its DMA reports here). */
    void attachDisk(VirtualDisk &d) { disk = &d; }

    // ---- SystemInterface ----
    U64 hypercall(Context &ctx, U64 nr, U64 a1, U64 a2, U64 a3) override;
    U64 readTsc(const Context &ctx) override;
    void vcpuBlock(Context &ctx) override;
    U64 ptlcall(Context &ctx, U64 op, U64 arg1, U64 arg2) override;
    void notifyCodeWrite(Pfn mfn) override;
    bool isCodeMfn(Pfn mfn) const override
    {
        return bbcache->isCodeMfn(mfn);
    }

    // ---- machine-facing state ----
    bool shutdownRequested() const { return shutdown; }
    U64 exitCode() const { return exit_code; }
    bool simSwitchRequested() const { return want_sim; }
    bool nativeSwitchRequested() const { return want_native; }
    bool snapshotRequested() const { return want_snapshot; }
    void clearModeRequests()
    {
        want_sim = want_native = want_snapshot = false;
    }

    /** Roll back a shutdown (checkpoint restore to a live domain). */
    void clearShutdown()
    {
        shutdown = false;
        exit_code = 0;
    }
    const std::vector<PtlMarker> &markers() const { return marks; }
    const std::vector<std::string> &commands() const { return command_log; }

    /** Hook invoked after a guest CR3 switch (cores flush TLBs). */
    void setCr3SwitchHook(std::function<void(Context &)> hook)
    {
        cr3_hook = std::move(hook);
    }

    /** Hook invoked on SMC invalidations (cores flush pipelines). */
    void setCodeWriteHook(std::function<void(Pfn)> hook)
    {
        code_hook = std::move(hook);
    }

    /**
     * Hook invoked whenever a machine-facing request flag is raised
     * (mode switch, snapshot, shutdown). The machine uses it to
     * schedule a control event on its EventQueue for the next cycle,
     * so the master loop never polls these flags per cycle.
     */
    void setAttentionHook(std::function<void()> hook)
    {
        attention_hook = std::move(hook);
    }

  private:
    void
    requestAttention()
    {
        if (attention_hook)
            attention_hook();
    }

    TimeKeeper *time;
    EventChannels *events;
    Console *console;
    VirtualDisk *disk = nullptr;
    VirtualNet *net;
    AddressSpace *aspace;
    BasicBlockCache *bbcache;

    bool shutdown = false;
    U64 exit_code = 0;
    bool want_sim = false;
    bool want_native = false;
    bool want_snapshot = false;
    std::vector<PtlMarker> marks;
    std::vector<std::string> command_log;
    std::function<void(Context &)> cr3_hook;
    std::function<void(Pfn)> code_hook;
    std::function<void()> attention_hook;

    Counter &st_hypercalls;
    Counter &st_ptlcalls;
    Counter &st_cr3_switches;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_HYPERVISOR_H_
