#include "core/context.h"

#include <bit>
#include <vector>

#include "lib/logging.h"
#include "mem/transcache.h"

namespace ptl {

namespace {

/** Shadow mode: re-walk a cached hit and panic on any divergence. */
inline void
shadowCheck(AddressSpace &aspace, const Context &ctx, GuestVirt va,
            MemAccess kind, const GuestAccess &out, bool entry_dirty)
{
    TranslationCache &tc = aspace.transCache();
    if (!tc.shadowEnabled())
        return;
    tc.countShadowCheck();
    verifyCachedTranslation(aspace, ctx.cr3, va, kind, !ctx.kernel_mode,
                            out.fault, out.paddr, entry_dirty);
}

}  // namespace

GuestAccess
guestTranslate(AddressSpace &aspace, const Context &ctx, GuestVirt va,
               MemAccess kind)
{
    GuestAccess out;
    TranslationCache &tc = aspace.transCache();
    const Vpn vpn = va.vpn();
    const bool user_mode = !ctx.kernel_mode;
    if (TranslationCache::Entry *e = tc.probe(ctx.cr3, vpn)) {
        // A write through an entry whose leaf D bit is not known set
        // falls through to the walker, which sets D exactly as the
        // hardware/microcode walk would (first-store re-walk).
        GuestFault f = checkPageAccess(true, e->writable, e->user,
                                       e->noexec, kind, user_mode);
        if (f != GuestFault::None) {
            tc.countHit();
            out.fault = f;
            shadowCheck(aspace, ctx, va, kind, out, e->dirty);
            return out;
        }
        if (kind != MemAccess::Write || e->dirty) {
            tc.countHit();
            out.paddr = e->mfn.pageBase().withOffset(va.pageOffset());
            shadowCheck(aspace, ctx, va, kind, out, e->dirty);
            return out;
        }
    }
    tc.countMiss();
    PageWalk walk = aspace.walk(ctx.cr3, va);
    out.fault = checkWalkAccess(walk, kind, user_mode);
    if (out.fault != GuestFault::None)
        return out;
    aspace.setAccessedDirty(walk, kind == MemAccess::Write);
    aspace.registerWalkFrames(walk);
    tc.insert(ctx.cr3, vpn, walk, kind == MemAccess::Write);
    out.paddr = walk.paddr(va);
    return out;
}

GuestAccess
guestRead(AddressSpace &aspace, const Context &ctx, GuestVirt va,
          unsigned bytes, U64 &value_out)
{
    value_out = 0;
    GuestAccess first = guestTranslate(aspace, ctx, va, MemAccess::Read);
    if (!first.ok()) {
        first.paddr = GuestPhys(0);
        return first;
    }
    PhysMem &mem = aspace.physMem();
    unsigned first_chunk = (unsigned)std::min<U64>(
        bytes, PAGE_SIZE - va.pageOffset());
    if (first_chunk == bytes) {
        value_out = mem.read(first.paddr, bytes);
        return first;
    }
    // Page-crossing: read the low bytes before the second page's walk,
    // which sets A bits that may lie in them.
    U64 low = mem.read(first.paddr, first_chunk);
    GuestAccess second =
        guestTranslate(aspace, ctx, va + first_chunk, MemAccess::Read);
    if (!second.ok()) {
        second.paddr = GuestPhys(0);
        return second;
    }
    value_out = low | mem.read(second.paddr, bytes - first_chunk)
                          << (first_chunk * 8);
    return first;
}

GuestStore
guestWrite(AddressSpace &aspace, const Context &ctx, GuestVirt va,
           unsigned bytes, U64 value)
{
    // Pre-check both pages so a cross-page store is all-or-nothing
    // (x86 stores are atomic with respect to faults); the copy below
    // reuses these translations instead of re-walking per chunk.
    GuestStore out;
    GuestAccess first =
        guestTranslate(aspace, ctx, va, MemAccess::Write);
    GuestAccess last = first;
    unsigned first_chunk = (unsigned)std::min<U64>(
        bytes, PAGE_SIZE - va.pageOffset());
    if (first.ok() && first_chunk < bytes)
        last = guestTranslate(aspace, ctx, va + bytes - 1, MemAccess::Write);
    out.fault = first.ok() ? last.fault : first.fault;
    if (!out.ok())
        return out;
    PhysMem &mem = aspace.physMem();
    mem.write(first.paddr, value, first_chunk);
    if (first_chunk < bytes)
        mem.write(last.paddr.pageBase(), value >> (first_chunk * 8),
                  bytes - first_chunk);
    out.paddr = first.paddr;
    out.mfns[0] = first.paddr.pfn();
    out.mfns[1] = last.paddr.pfn();
    out.frames = (out.mfns[1] == out.mfns[0]) ? 1 : 2;
    for (int f = 0; f < out.frames; f++)
        aspace.notifyGuestStore(out.mfns[f]);
    return out;
}

namespace {

/** snoopCodeWrite for one frame just written. */
bool
snoopFrame(SystemInterface &sys, Pfn mfn)
{
    if (!sys.isCodeMfn(mfn))
        return false;
    sys.notifyCodeWrite(mfn);
    return true;
}

/** The bulk helpers' page-chunk loop: translate each page of [va,
 *  va + len) once and hand `move(paddr, done, chunk)` its piece. */
template <typename Move>
GuestCopy
forEachGuestChunk(AddressSpace &aspace, const Context &ctx, GuestVirt va,
                  size_t len, MemAccess kind, Move &&move)
{
    GuestCopy out;
    while (out.copied < len) {
        GuestVirt cur = va + out.copied;
        size_t chunk = (size_t)std::min<U64>(
            len - out.copied, PAGE_SIZE - cur.pageOffset());
        GuestAccess a = guestTranslate(aspace, ctx, cur, kind);
        if (!a.ok()) {
            out.fault = a.fault;
            out.fault_va = cur;
            return out;
        }
        if (out.copied == 0)
            out.first_paddr = a.paddr;
        move(a.paddr, out.copied, chunk);
        out.copied += chunk;
    }
    return out;
}

}  // namespace

bool
snoopCodeWrite(SystemInterface &sys, const GuestStore &store)
{
    bool hit = false;
    for (int f = 0; f < store.frames; f++)
        hit |= snoopFrame(sys, store.mfns[f]);
    return hit;
}

GuestCopy
guestCopyIn(AddressSpace &aspace, const Context &ctx, void *dst,
            GuestVirt va, size_t len, MemAccess kind)
{
    U8 *p = (U8 *)dst;
    return forEachGuestChunk(
        aspace, ctx, va, len, kind,
        [&](GuestPhys paddr, size_t done, size_t chunk) {
            aspace.physMem().readBytes(paddr, p + done, chunk);
        });
}

GuestCopy
guestCopyOut(AddressSpace &aspace, const Context &ctx, GuestVirt va,
             const void *src, size_t len, SystemInterface *code)
{
    const U8 *p = (const U8 *)src;
    return forEachGuestChunk(
        aspace, ctx, va, len, MemAccess::Write,
        [&](GuestPhys paddr, size_t done, size_t chunk) {
            aspace.physMem().writeBytes(paddr, p + done, chunk);
            aspace.notifyGuestStore(paddr.pfn());
            if (code)
                snoopFrame(*code, paddr.pfn());
        });
}

GuestCopy
guestFill(AddressSpace &aspace, const Context &ctx, GuestVirt va,
          U8 value, size_t len)
{
    return guestCopyOut(aspace, ctx, va, std::vector<U8>(len, value).data(),
                        len);
}

namespace {

/** Pack the saved-state word for event/fault/iret frames. */
U64
packFlagsWord(const Context &ctx)
{
    return (U64)ctx.flags | ((U64)ctx.kernel_mode << 16)
           | ((U64)ctx.event_mask << 17);
}

/** Push an interrupt-style frame; returns new rsp or fault. */
GuestAccess
pushFrame(Context &ctx, AddressSpace &aspace, U64 fault_word, U64 &new_rsp)
{
    // Frame layout (descending):
    //   [sp+24] saved rsp
    //   [sp+16] saved flags | kernel_mode<<16 | event_mask<<17
    //   [sp+8]  saved (interrupted) rip
    //   [sp+0]  fault word: (kind << 48) | fault address
    U64 target_sp = ctx.kernel_mode ? ctx.regs[REG_rsp] : ctx.kernel_sp;
    U64 sp = target_sp - 32;
    // The kernel stack is always mapped kernel-writable; translate in
    // kernel mode (delivery itself runs in microcode at CPL0).
    Context kctx = ctx;
    kctx.kernel_mode = true;
    GuestAccess a;
    a = guestWrite(aspace, kctx, GuestVirt(sp + 24), 8,
                   ctx.regs[REG_rsp]);
    if (!a.ok()) return a;
    a = guestWrite(aspace, kctx, GuestVirt(sp + 16), 8,
                   packFlagsWord(ctx));
    if (!a.ok()) return a;
    a = guestWrite(aspace, kctx, GuestVirt(sp + 8), 8, ctx.rip.raw());
    if (!a.ok()) return a;
    a = guestWrite(aspace, kctx, GuestVirt(sp + 0), 8, fault_word);
    if (!a.ok()) return a;
    new_rsp = sp;
    return a;
}

}  // namespace

AssistResult
deliverEvent(Context &ctx, AddressSpace &aspace)
{
    AssistResult out;
    ptl_assert(!ctx.event_mask);
    ptl_assert(ctx.event_callback != 0);
    U64 new_rsp = 0;
    GuestAccess a = pushFrame(ctx, aspace, 0, new_rsp);
    if (!a.ok()) {
        out.fault = a.fault;
        return out;
    }
    ctx.regs[REG_rsp] = new_rsp;
    ctx.kernel_mode = true;
    ctx.event_mask = true;
    ctx.event_pending = false;
    ctx.rip = GuestVirt(ctx.event_callback);
    out.next_rip = ctx.rip;
    return out;
}

AssistResult
deliverFault(Context &ctx, AddressSpace &aspace, GuestFault fault,
             GuestVirt fault_rip, GuestVirt fault_addr)
{
    AssistResult out;
    if (ctx.event_callback == 0) {
        // No registered handler: the domain is dead (a real machine
        // would triple-fault and reset). Halt the VCPU permanently;
        // the simulator itself stays healthy.
        warn("guest fault %s at rip %llx (addr %llx) with no handler: "
             "halting VCPU %d",
             guestFaultName(fault), (unsigned long long)fault_rip.raw(),
             (unsigned long long)fault_addr.raw(), ctx.vcpu_id);
        ctx.running = false;
        ctx.event_pending = false;
        out.fault = fault;
        out.next_rip = fault_rip;
        return out;
    }
    GuestVirt saved_rip = ctx.rip;
    ctx.rip = fault_rip;
    U64 word = ((U64)fault << 48) | (fault_addr.raw() & lowMask(48));
    U64 new_rsp = 0;
    GuestAccess a = pushFrame(ctx, aspace, word, new_rsp);
    if (!a.ok()) {
        // Double fault: the kernel stack itself is bad; domain death.
        warn("double fault delivering %s at rip %llx: halting VCPU %d",
             guestFaultName(fault), (unsigned long long)fault_rip.raw(),
             ctx.vcpu_id);
        ctx.rip = saved_rip;
        ctx.running = false;
        ctx.event_pending = false;
        out.fault = fault;
        out.next_rip = fault_rip;
        return out;
    }
    (void)saved_rip;
    ctx.regs[REG_rsp] = new_rsp;
    ctx.kernel_mode = true;
    ctx.event_mask = true;
    ctx.rip = GuestVirt(ctx.event_callback);
    out.next_rip = ctx.rip;
    return out;
}

AssistResult
executeAssist(AssistId id, Context &ctx, AddressSpace &aspace,
              SystemInterface &sys, GuestVirt ripseq)
{
    AssistResult out;
    out.next_rip = ripseq;

    switch (id) {
      case AssistId::Syscall: {
        if (ctx.kernel_mode || ctx.lstar == 0) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        // rcx <- return rip, r11 <- rflags (real x86-64 semantics);
        // microcode then switches to the kernel stack registered via
        // the stack_switch hypercall and pushes the user rsp.
        ctx.regs[REG_rcx] = ripseq.raw();
        ctx.regs[REG_r11] = ctx.flags;
        U64 user_rsp = ctx.regs[REG_rsp];
        ctx.saved_user_rsp = user_rsp;
        Context kctx = ctx;
        kctx.kernel_mode = true;
        GuestAccess a =
            guestWrite(aspace, kctx, GuestVirt(ctx.kernel_sp - 8), 8,
                       user_rsp);
        if (!a.ok()) {
            out.fault = a.fault;
            return out;
        }
        ctx.regs[REG_rsp] = ctx.kernel_sp - 8;
        ctx.kernel_mode = true;
        ctx.event_mask = true;
        out.next_rip = GuestVirt(ctx.lstar);
        return out;
      }
      case AssistId::Sysret: {
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        // rsp must point at the saved user-rsp slot; rip <- rcx,
        // rflags <- r11, drop to user mode with events unmasked.
        U64 user_rsp = 0;
        GuestAccess a =
            guestRead(aspace, ctx, GuestVirt(ctx.regs[REG_rsp]), 8,
                      user_rsp);
        if (!a.ok()) {
            out.fault = a.fault;
            return out;
        }
        ctx.regs[REG_rsp] = user_rsp;
        ctx.flags = (U16)(ctx.regs[REG_r11]
                          & (FLAG_ZAPS_MASK | FLAG_CF | FLAG_OF | FLAG_DF));
        ctx.kernel_mode = false;
        ctx.event_mask = false;
        out.next_rip = GuestVirt(ctx.regs[REG_rcx]);
        return out;
      }
      case AssistId::Hypercall: {
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        ctx.regs[REG_rax] =
            sys.hypercall(ctx, ctx.regs[REG_rax], ctx.regs[REG_rdi],
                          ctx.regs[REG_rsi], ctx.regs[REG_rdx]);
        return out;
      }
      case AssistId::Iret: {
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        U64 rip = 0, word = 0, rsp = 0;
        GuestVirt sp = GuestVirt(ctx.regs[REG_rsp]);
        GuestAccess a = guestRead(aspace, ctx, sp, 8, rip);
        if (a.ok()) a = guestRead(aspace, ctx, sp + 8, 8, word);
        if (a.ok()) a = guestRead(aspace, ctx, sp + 16, 8, rsp);
        if (!a.ok()) {
            out.fault = a.fault;
            return out;
        }
        ctx.regs[REG_rsp] = rsp;
        ctx.flags = (U16)(word
                          & (FLAG_ZAPS_MASK | FLAG_CF | FLAG_OF | FLAG_DF));
        ctx.kernel_mode = bit(word, 16);
        ctx.event_mask = bit(word, 17);
        out.next_rip = GuestVirt(rip);
        return out;
      }
      case AssistId::Hlt: {
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        sys.vcpuBlock(ctx);
        out.blocked = true;
        return out;
      }
      case AssistId::Ptlcall: {
        ctx.regs[REG_rax] =
            sys.ptlcall(ctx, ctx.regs[REG_rax], ctx.regs[REG_rdi],
                        ctx.regs[REG_rsi]);
        return out;
      }
      case AssistId::Rdtsc: {
        U64 tsc = sys.readTsc(ctx);
        ctx.regs[REG_rax] = (U32)tsc;
        ctx.regs[REG_rdx] = tsc >> 32;
        return out;
      }
      case AssistId::Cpuid: {
        // Synthetic, deterministic CPUID: vendor "PTLsimVirtual".
        switch ((U32)ctx.regs[REG_rax]) {
          case 0:
            ctx.regs[REG_rax] = 1;
            ctx.regs[REG_rbx] = 0x4c545030;  // "0PTL"-ish tags
            ctx.regs[REG_rcx] = 0x4d495334;
            ctx.regs[REG_rdx] = 0x78383673;
            break;
          default:
            ctx.regs[REG_rax] = 0x00100f00;  // K8-like family/model
            ctx.regs[REG_rbx] = 0;
            ctx.regs[REG_rcx] = 0;
            ctx.regs[REG_rdx] = 1 << 25;     // sse-ish feature bit
            break;
        }
        return out;
      }
      case AssistId::Cli:
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        ctx.event_mask = true;
        return out;
      case AssistId::Sti:
        if (!ctx.kernel_mode) {
            out.fault = GuestFault::GeneralProtection;
            return out;
        }
        ctx.event_mask = false;
        return out;
      case AssistId::X87Fld: {
        // ra carried the effective address in temp0 by convention.
        U64 value = 0;
        GuestAccess a =
            guestRead(aspace, ctx, GuestVirt(ctx.regs[REG_temp0]), 8,
                      value);
        if (!a.ok()) {
            out.fault = a.fault;
            return out;
        }
        if (ctx.x87_top >= 8) {
            out.fault = GuestFault::InvalidOpcode;  // stack overflow
            return out;
        }
        ctx.x87_stack[ctx.x87_top++] = value;
        return out;
      }
      case AssistId::X87Fstp: {
        if (ctx.x87_top == 0) {
            out.fault = GuestFault::InvalidOpcode;
            return out;
        }
        U64 value = ctx.x87_stack[--ctx.x87_top];
        GuestStore st =
            guestWrite(aspace, ctx, GuestVirt(ctx.regs[REG_temp0]), 8,
                       value);
        if (!st.ok()) {
            ctx.x87_top++;  // restore on fault
            out.fault = st.fault;
            return out;
        }
        snoopCodeWrite(sys, st);
        return out;
      }
      case AssistId::X87Fadd: case AssistId::X87Fmul: {
        if (ctx.x87_top < 2) {
            out.fault = GuestFault::InvalidOpcode;
            return out;
        }
        double b = std::bit_cast<double>(ctx.x87_stack[ctx.x87_top - 1]);
        double a = std::bit_cast<double>(ctx.x87_stack[ctx.x87_top - 2]);
        double r = (id == AssistId::X87Fadd) ? (a + b) : (a * b);
        ctx.x87_top--;
        ctx.x87_stack[ctx.x87_top - 1] = std::bit_cast<U64>(r);
        return out;
      }
      case AssistId::InvalidOpcode:
        out.fault = GuestFault::InvalidOpcode;
        return out;
      case AssistId::PageFaultAssist:
        out.fault = GuestFault::PageFaultRead;
        return out;
      case AssistId::Pushf: case AssistId::Popf:
        panic("pushf/popf are translated inline, not via assists");
    }
    panic("unhandled assist %d", (int)id);
}

}  // namespace ptl
