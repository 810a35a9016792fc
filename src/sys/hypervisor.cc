#include "sys/hypervisor.h"

#include "lib/logging.h"

namespace ptl {

Hypervisor::Hypervisor(TimeKeeper &timekeeper, EventChannels &channels,
                       Console &cons, VirtualNet &vnet,
                       AddressSpace &addrspace,
                       BasicBlockCache &bbs, StatsTree &stats)
    : time(&timekeeper), events(&channels), console(&cons), net(&vnet),
      aspace(&addrspace), bbcache(&bbs),
      st_hypercalls(stats.counter("hypervisor/hypercalls")),
      st_ptlcalls(stats.counter("hypervisor/ptlcalls")),
      st_cr3_switches(stats.counter("hypervisor/cr3_switches"))
{
}

U64
Hypervisor::hypercall(Context &ctx, U64 nr, U64 a1, U64 a2, U64 a3)
{
    st_hypercalls++;
    switch ((Hypercall)nr) {
      case HC_console_write: {
        if (a2 > 65536)
            return HC_ERROR;
        std::vector<U8> buf((size_t)a2);
        if (!guestCopyIn(*aspace, ctx, buf.data(), GuestVirt(a1), a2).ok())
            return HC_ERROR;
        console->write(buf.data(), buf.size());
        return a2;
      }
      case HC_set_timer:
        events->sendAt(time->cycle() + cycles(a1), PORT_TIMER);
        return 0;
      case HC_stack_switch:
        ctx.kernel_sp = a1;
        return 0;
      case HC_set_callbacks:
        ctx.event_callback = a1;
        return 0;
      case HC_evtchn_pending:
        return events->consumePending(ctx.vcpu_id);
      case HC_new_baseptr: {
        if (a1 >= aspace->physMem().frameCount())
            return HC_ERROR;
        ctx.cr3 = Pfn(a1);
        st_cr3_switches++;
        // The new root may alias frames cached under walks the
        // translation cache never snooped being built; start clean.
        aspace->flushTranslationCache();
        if (cr3_hook)
            cr3_hook(ctx);
        return 0;
      }
      case HC_get_time_ns:
        return time->cyclesToNs(cycles(time->readTsc()));
      case HC_net_send: {
        if ((int)a1 >= net->endpointCount() || a3 > 1 << 20)
            return HC_ERROR;
        std::vector<U8> buf((size_t)a3);
        if (!guestCopyIn(*aspace, ctx, buf.data(), GuestVirt(a2), a3).ok())
            return HC_ERROR;
        net->send((int)a1, buf.data(), buf.size());
        return a3;
      }
      case HC_net_recv: {
        if ((int)a1 >= net->endpointCount() || a3 > 1 << 20)
            return HC_ERROR;
        std::vector<U8> buf((size_t)a3);
        size_t n = net->recv((int)a1, buf.data(), buf.size());
        if (n && !guestCopyOut(*aspace, ctx, GuestVirt(a2), buf.data(), n,
                               this).ok())
            return HC_ERROR;
        return n;
      }
      case HC_disk_read:
        return disk->read(ctx, a1, a2, GuestVirt(a3)) ? 0 : HC_ERROR;
      case HC_shutdown:
        shutdown = true;
        exit_code = a1;
        requestAttention();
        return 0;
      case HC_net_available:
        if ((int)a1 >= net->endpointCount())
            return HC_ERROR;
        return net->available((int)a1);
      case HC_disk_sectors:
        return disk->sectorCount();
      case HC_vcpu_count:
        return (U64)events->vcpuCount();
      default:
        ptl_warn_once("unknown hypercall %llu", (unsigned long long)nr);
        return HC_ERROR;
    }
}

U64
Hypervisor::readTsc(const Context &ctx)
{
    return time->readTsc() - ctx.tsc_offset;
}

void
Hypervisor::vcpuBlock(Context &ctx)
{
    // If an event is already pending, hlt falls straight through
    // (the wakeup raced with the block), as on real hardware.
    if (ctx.event_pending)
        return;
    ctx.running = false;
}

U64
Hypervisor::ptlcall(Context &ctx, U64 op, U64 arg1, U64 /*arg2*/)
{
    st_ptlcalls++;
    switch ((PtlcallOp)op) {
      case PTLCALL_NOP:
        return 0;
      case PTLCALL_SWITCH_TO_SIM:
        want_sim = true;
        requestAttention();
        return 0;
      case PTLCALL_SWITCH_TO_NATIVE:
        want_native = true;
        requestAttention();
        return 0;
      case PTLCALL_KILL:
        shutdown = true;
        exit_code = arg1;
        requestAttention();
        return 0;
      case PTLCALL_SNAPSHOT:
        want_snapshot = true;
        requestAttention();
        return 0;
      case PTLCALL_MARKER:
        marks.push_back({time->cycle(), arg1});
        return 0;
      case PTLCALL_COMMAND: {
        // Command list as a NUL-terminated guest string (Section 4.1).
        char buf[256];
        GuestCopy g = guestCopyIn(*aspace, ctx, buf, GuestVirt(arg1),
                                  sizeof(buf));
        std::string cmd;
        for (size_t i = 0; i < g.copied && buf[i]; i++)
            cmd.push_back(buf[i]);
        command_log.push_back(cmd);
        // Interpret the classic commands inline.
        if (cmd.find("-native") != std::string::npos)
            want_native = true;
        if (cmd.find("-run") != std::string::npos)
            want_sim = true;
        if (cmd.find("-kill") != std::string::npos)
            shutdown = true;
        if (cmd.find("-snapshot") != std::string::npos)
            want_snapshot = true;
        requestAttention();
        return 0;
      }
      default:
        ptl_warn_once("unknown ptlcall op %llu", (unsigned long long)op);
        return HC_ERROR;
    }
}

void
Hypervisor::notifyCodeWrite(Pfn mfn)
{
    bbcache->invalidateMfn(mfn);
    if (code_hook)
        code_hook(mfn);
}

}  // namespace ptl
