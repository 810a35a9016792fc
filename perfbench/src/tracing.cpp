#include "tracing.h"

#include <memory>

#include "core/coreapi.h"
#include "kernel/hypercalls.h"
#include "workload/rsyncbench.h"

namespace perfbench {

using namespace ptl;

namespace {

/** Forwards every call to the machine's hypervisor; counts them and
 *  stamps host time at phase markers. */
class ForwardingSys final : public SystemInterface
{
  public:
    ForwardingSys(SystemInterface *inner_sys, TraceLog *trace_log)
        : inner(inner_sys), log(trace_log)
    {
    }

    U64
    hypercall(Context &ctx, U64 nr, U64 a1, U64 a2, U64 a3) override
    {
        log->sys_calls++;
        return inner->hypercall(ctx, nr, a1, a2, a3);
    }

    U64
    readTsc(const Context &ctx) override
    {
        log->sys_calls++;
        return inner->readTsc(ctx);
    }

    void
    vcpuBlock(Context &ctx) override
    {
        log->sys_calls++;
        inner->vcpuBlock(ctx);
    }

    U64
    ptlcall(Context &ctx, U64 op, U64 arg1, U64 arg2) override
    {
        log->sys_calls++;
        if (op == PTLCALL_MARKER)
            log->marks.push_back({arg1, Clock::now()});
        return inner->ptlcall(ctx, op, arg1, arg2);
    }

    void
    notifyCodeWrite(Pfn mfn) override
    {
        log->sys_calls++;
        inner->notifyCodeWrite(mfn);
    }

    bool
    isCodeMfn(Pfn mfn) const override
    {
        log->sys_calls++;
        return inner->isCodeMfn(mfn);
    }

  private:
    SystemInterface *inner;
    TraceLog *log;
};

/** Wraps a core model and times its cycle(). */
class TracedCore final : public CoreModel
{
  public:
    TracedCore(std::unique_ptr<ForwardingSys> forwarding_sys,
               std::unique_ptr<CoreModel> inner_core, TraceLog *trace_log)
        : sys(std::move(forwarding_sys)), inner(std::move(inner_core)),
          log(trace_log)
    {
    }

    void
    attachAuditor(std::unique_ptr<CoreAuditor> auditor) override
    {
        inner->attachAuditor(std::move(auditor));
    }

    void
    cycle(SimCycle now) override
    {
        Clock::time_point t0 = Clock::now();
        inner->cycle(now);
        log->cycle_s +=
            std::chrono::duration<double>(Clock::now() - t0).count();
        log->cycle_calls++;
    }

    bool allIdle() const override { return inner->allIdle(); }
    SimCycle
    sleepUntil(SimCycle now) const override
    {
        return inner->sleepUntil(now);
    }
    void flushPipeline() override { inner->flushPipeline(); }
    void flushTlbs() override { inner->flushTlbs(); }
    void resetTimebase(SimCycle now) override { inner->resetTimebase(now); }
    void resetMicroarch(SimCycle now) override { inner->resetMicroarch(now); }
    std::string name() const override { return inner->name(); }
    std::string debugState() const override { return inner->debugState(); }

  private:
    std::unique_ptr<ForwardingSys> sys;   // outlives `inner`, which uses it
    std::unique_ptr<CoreModel> inner;
    TraceLog *log;
};

int
phaseIndex(U64 marker_id)
{
    switch (marker_id) {
      case PHASE_A_STARTUP: return 0;
      case PHASE_B_SSH_CONNECT: return 1;
      case PHASE_C_CLIENT_LIST: return 2;
      case PHASE_D_SERVER_LIST: return 3;
      case PHASE_E_DELTAS: return 4;
      case PHASE_F_TRANSMIT: return 5;
      case PHASE_G_SHUTDOWN: return 6;
      default: return -1;
    }
}

}  // namespace

std::array<double, PHASE_COUNT>
TraceLog::phaseSeconds(Clock::time_point start, Clock::time_point end) const
{
    std::array<double, PHASE_COUNT> out{};
    int phase = 0;
    Clock::time_point from = start;
    auto close = [&](Clock::time_point to) {
        out[phase] += std::chrono::duration<double>(to - from).count();
        from = to;
    };
    for (const Mark &m : marks) {
        int next = phaseIndex(m.id);
        if (next < 0)
            continue;
        close(m.at);
        phase = next;
    }
    close(end);
    return out;
}

void
registerTracedCore(TraceLog *log)
{
    registerCoreModel("ooo-traced", [log](const CoreBuildParams &p) {
        auto sys = std::make_unique<ForwardingSys>(p.sys, log);
        CoreBuildParams q = p;
        q.sys = sys.get();
        std::unique_ptr<CoreModel> inner = createCoreModel("ooo", q);
        return std::make_unique<TracedCore>(std::move(sys), std::move(inner),
                                            log);
    });
}

}  // namespace perfbench
