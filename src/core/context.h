/**
 * @file
 * The per-VCPU Context structure.
 *
 * Section 4.4: "The Context structure in PTLsim is central to
 * multi-processor support. Each VCPU has one Context structure
 * encapsulating all information about that VCPU, including its
 * architectural registers, x86 machine state registers (MSRs), page
 * tables and internal PTLsim state." Cores update the architectural
 * state here as they commit; microcode (assists) and every other
 * subsystem read and write it.
 */

#ifndef PTLSIM_CORE_CONTEXT_H_
#define PTLSIM_CORE_CONTEXT_H_

#include "decode/bbcache.h"
#include "lib/archive.h"
#include "mem/pagetable.h"
#include "uop/uop.h"
#include "uop/uopexec.h"

namespace ptl {

/** Architectural state of one virtual CPU. */
struct Context
{
    int vcpu_id = 0;

    // ---- architectural registers ----
    /** Values for the uop register space: GPRs, XMM low halves,
     *  fs/gs bases. Temp slots are scratch (microcode-local). */
    U64 regs[NUM_UOP_REGS] = {};
    GuestVirt rip;
    U16 flags = 0;             ///< ZAPS | CF | OF | DF image

    // ---- system state ----
    Pfn cr3;                   ///< page table root MFN
    bool kernel_mode = false;
    bool running = true;       ///< false while blocked in hlt

    // MSR-equivalents and paravirtual registration state.
    U64 lstar = 0;             ///< syscall entry point
    U64 kernel_sp = 0;         ///< kernel stack top (stack_switch hypercall)
    U64 event_callback = 0;    ///< registered event-channel upcall entry
    U64 saved_user_rsp = 0;    ///< scratch used by syscall microcode

    // Virtual interrupt (event channel) delivery state.
    bool event_mask = true;    ///< true = events blocked (virtual IF=0)
    bool event_pending = false;

    // Minimal legacy x87 state (microcoded; reduced performance).
    U64 x87_stack[8] = {};
    int x87_top = 0;           ///< number of valid stack slots

    // Time virtualization: offset subtracted from the virtual TSC so
    // native<->simulation transitions are seamless (Section 4.1).
    U64 tsc_offset = 0;

    /** Checkpoint: every field. */
    void
    visit(Archive &ar)
    {
        ar(vcpu_id, regs, rip, flags, cr3, kernel_mode, running, lstar,
           kernel_sp, event_callback, saved_user_rsp, event_mask,
           event_pending, x87_stack, x87_top, tsc_offset);
    }

    U64
    reg(int r) const
    {
        return (r == REG_zero) ? 0 : regs[r];
    }

    void
    setReg(int r, U64 value)
    {
        if (r != REG_zero && r != REG_none)
            regs[r] = value;
    }

    /** Apply a uop's produced flag groups to the architectural flags. */
    void
    applyFlags(U16 produced, U8 setmask)
    {
        U16 keep = 0;
        if (!(setmask & SETFLAG_ZAPS))
            keep |= FLAG_ZAPS_MASK;
        if (!(setmask & SETFLAG_CF))
            keep |= FLAG_CF;
        if (!(setmask & SETFLAG_OF))
            keep |= FLAG_OF;
        keep |= FLAG_DF;  // DF only changes via explicit transfers
        flags = (U16)((flags & keep) | (produced & ~keep));
    }
};

/** Functional guest-virtual memory access (page tables + PhysMem). */
struct GuestAccess
{
    GuestFault fault = GuestFault::None;
    GuestPhys paddr;
    bool ok() const { return fault == GuestFault::None; }
};

/**
 * Translate a guest VA under ctx's CR3/privilege; sets A/D bits.
 * Served from the address space's simulator-internal translation
 * cache (src/mem/transcache.h) when possible; a miss — including the
 * first write through an entry whose Dirty bit is not known set —
 * runs the full 4-level walk and refills the cache.
 */
GuestAccess guestTranslate(AddressSpace &aspace, const Context &ctx,
                           GuestVirt va, MemAccess kind);

/** Read 1..8 bytes of guest-virtual memory functionally (may cross
 *  pages). */
GuestAccess guestRead(AddressSpace &aspace, const Context &ctx,
                      GuestVirt va, unsigned bytes, U64 &value_out);

/** A functional store's outcome: on success, `paddr` of its first
 *  byte and the one or two distinct frames it wrote. */
struct GuestStore : GuestAccess
{
    Pfn mfns[2];
    int frames = 0;
};

/** Write 1..8 bytes of guest-virtual memory functionally (may cross
 *  pages); all or nothing if either page faults. */
GuestStore guestWrite(AddressSpace &aspace, const Context &ctx,
                      GuestVirt va, unsigned bytes, U64 value);

/**
 * Result of a bulk guest-memory transfer. A fault stops the transfer
 * at the first byte of the faulting page: `copied` bytes were fully
 * transferred, matching what a byte-at-a-time loop would have done
 * (per-byte faults always occur at page granularity).
 */
struct GuestCopy
{
    GuestFault fault = GuestFault::None;
    GuestVirt fault_va;     ///< VA of the first untransferred byte
    GuestPhys first_paddr;  ///< machine-physical address of byte 0
    size_t copied = 0;
    bool ok() const { return fault == GuestFault::None; }
};

/**
 * Bulk guest-virtual memory helpers: translate once per page and move
 * page-sized chunks, instead of one walk per byte. `kind` lets the
 * decoder fetch instruction bytes with Execute permission checks.
 */
GuestCopy guestCopyIn(AddressSpace &aspace, const Context &ctx, void *dst,
                      GuestVirt va, size_t len,
                      MemAccess kind = MemAccess::Read);

/** Fill a guest-virtual range with one byte value. */
GuestCopy guestFill(AddressSpace &aspace, const Context &ctx, GuestVirt va,
                    U8 value, size_t len);

/**
 * Adapter giving the decode-layer basic block cache (which cannot see
 * Context or AddressSpace — layering) a window onto guest code: the
 * cache pulls bytes and frame numbers through the CodeSource
 * interface it owns, and this class implements it with the vcpu's
 * translation context. Stack-allocate around each get() call; holds
 * non-owning pointers only.
 */
class ContextCodeSource final : public CodeSource
{
  public:
    /** Code at `fetch_rip`, under c's translation context. */
    ContextCodeSource(AddressSpace &as, const Context &c,
                      GuestVirt fetch_rip)
        : aspace(&as), ctx(&c), start(fetch_rip)
    {
    }
    ContextCodeSource(AddressSpace &as, const Context &c)
        : ContextCodeSource(as, c, c.rip)
    {
    }

    GuestVirt rip() const override { return start; }
    bool kernelMode() const override { return ctx->kernel_mode; }

    GuestFault
    translateExec(GuestVirt va, Pfn *mfn) const override
    {
        GuestAccess a = guestTranslate(*aspace, *ctx, va,
                                       MemAccess::Execute);
        if (!a.ok())
            return a.fault;
        *mfn = a.paddr.pfn();
        return GuestFault::None;
    }

    size_t
    fetchCode(GuestVirt va, U8 *dst, size_t len, Pfn *first_mfn,
              GuestFault *fault) const override
    {
        GuestCopy g = guestCopyIn(*aspace, *ctx, dst, va, len,
                                  MemAccess::Execute);
        *first_mfn = g.first_paddr.pfn();
        *fault = g.fault;
        return g.copied;
    }

  private:
    AddressSpace *aspace;
    const Context *ctx;
    GuestVirt start;
};

/**
 * Hooks microcode (assists) uses to reach the rest of the machine:
 * implemented by the hypervisor model in src/sys.
 */
class SystemInterface
{
  public:
    virtual ~SystemInterface() = default;

    /** Paravirtual hypercall (0f 34 gate): nr in rax, args rdi/rsi/rdx. */
    virtual U64 hypercall(Context &ctx, U64 nr, U64 a1, U64 a2, U64 a3) = 0;

    /** Current virtualized TSC value for rdtsc. */
    virtual U64 readTsc(const Context &ctx) = 0;

    /** VCPU executed hlt: block until the next event. */
    virtual void vcpuBlock(Context &ctx) = 0;

    /** ptlcall (0f 37) breakout: rax selects the operation. */
    virtual U64 ptlcall(Context &ctx, U64 op, U64 arg1, U64 arg2) = 0;

    /** A store hit a code page: invalidate translated code (SMC). */
    virtual void notifyCodeWrite(Pfn mfn) = 0;

    /** True if `mfn` currently backs decoded basic blocks. */
    virtual bool isCodeMfn(Pfn mfn) const = 0;
};

/** The self-modifying-code rule (Section 2.1) for every guest writer:
 *  report each frame `store` wrote that backs decoded code through
 *  sys.notifyCodeWrite. True if any did. */
bool snoopCodeWrite(SystemInterface &sys, const GuestStore &store);

/** Copy host memory into the guest. Writers that run once code may
 *  be decoded pass the machine as `code`, which snoops each page as
 *  snoopCodeWrite does; only domain building leaves it null. */
GuestCopy guestCopyOut(AddressSpace &aspace, const Context &ctx,
                       GuestVirt va, const void *src, size_t len,
                       SystemInterface *code = nullptr);

/** Result of running an assist (microcode handler). */
struct AssistResult
{
    GuestVirt next_rip;
    GuestFault fault = GuestFault::None;
    bool blocked = false;     ///< VCPU went to sleep (hlt)
    bool exit_requested = false;  ///< ptlcall asked to stop simulation
};

/**
 * Execute one microcode assist. `ripseq` is the RIP of the next
 * sequential instruction (where execution resumes unless the assist
 * redirects). The assist may read/modify ctx, guest memory, and the
 * system interface.
 */
AssistResult executeAssist(AssistId id, Context &ctx, AddressSpace &aspace,
                           SystemInterface &sys, GuestVirt ripseq);

/**
 * Deliver a pending event (virtual interrupt) to the guest: builds the
 * interrupt frame on the kernel stack and redirects to the registered
 * event callback, exactly as PTLsim's microcode does for x86 exception
 * delivery (Section 2.1). Returns the new RIP, or a fault if the frame
 * cannot be pushed.
 */
AssistResult deliverEvent(Context &ctx, AddressSpace &aspace);

/** Deliver a synchronous guest fault (#PF/#DE/#UD/#GP) to the kernel's
 *  registered handler via the same frame format; the fault kind and
 *  faulting address are passed in the frame. */
AssistResult deliverFault(Context &ctx, AddressSpace &aspace,
                          GuestFault fault, GuestVirt fault_rip,
                          GuestVirt fault_addr);

}  // namespace ptl

#endif  // PTLSIM_CORE_CONTEXT_H_
