/**
 * End-to-end functional execution tests: guest programs assembled with
 * the repository toolchain run through decode -> basic-block cache ->
 * uop execution on the FunctionalEngine, with results checked against
 * independently computed expectations.
 */

#include <gtest/gtest.h>

#include "guest_harness.h"

namespace ptl {
namespace {

TEST(Exec, StraightLineArithmetic)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 10);
    a.mov(R::rbx, 32);
    a.add(R::rax, R::rbx);    // 42
    a.shl(R::rax, 4);         // 672
    a.sub(R::rax, 72);        // 600
    a.imul(R::rax, R::rax, 3);// 1800
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 1800ULL);
}

TEST(Exec, FactorialLoop)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 1);
    a.mov(R::rcx, 10);
    Label top = a.label();
    a.imul(R::rax, R::rcx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 3628800ULL);  // 10!
    EXPECT_EQ(g.reg(R::rcx), 0ULL);
}

TEST(Exec, MemoryLoadsStoresAllSizes)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.movImm64(R::rax, 0x1122334455667788ULL);
    a.mov(Mem::at(R::rbx), R::rax);
    a.mov32(Mem::at(R::rbx, 8), R::rax);
    a.mov16(Mem::at(R::rbx, 12), R::rax);
    a.mov8(Mem::at(R::rbx, 14), R::rax);
    a.movzx8(R::rcx, Mem::at(R::rbx, 7));     // 0x11
    a.movsx8(R::rdx, Mem::at(R::rbx, 0));     // sign-extended 0x88
    a.movzx16(R::rsi, Mem::at(R::rbx, 0));    // 0x7788
    a.mov(R::rdi, Mem::at(R::rbx));
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.readGuest(DATA_BASE, 8),
              0x1122334455667788ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE + 8, 4), 0x55667788ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE + 12, 2), 0x7788ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE + 14, 1), 0x88ULL);
    EXPECT_EQ(g.reg(R::rcx), 0x11ULL);
    EXPECT_EQ(g.reg(R::rdx), 0xffffffffffffff88ULL);
    EXPECT_EQ(g.reg(R::rsi), 0x7788ULL);
    EXPECT_EQ(g.reg(R::rdi), 0x1122334455667788ULL);
}

TEST(Exec, PartialRegisterWritesPreserveHighBits)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rax, 0xAAAAAAAAAAAAAAAAULL);
    a.movImm64(R::rbx, DATA_BASE);
    a.movStoreImm32(Mem::at(R::rbx), 0x11);
    a.mov8(R::rax, Mem::at(R::rbx));    // only AL changes
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 0xAAAAAAAAAAAAAA11ULL);
}

TEST(Exec, Mov32ZeroExtends)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rax, ~0ULL);
    a.mov32(R::rax, R::rax);   // zero-extends to 32 bits
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 0xffffffffULL);
}

TEST(Exec, CallRetNested)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label f1 = a.newLabel(), f2 = a.newLabel(), done = a.newLabel();
    a.mov(R::rax, 0);
    a.call(f1);
    a.jmp(done);
    a.bind(f1);
    a.add(R::rax, 1);
    a.call(f2);
    a.add(R::rax, 4);
    a.ret();
    a.bind(f2);
    a.add(R::rax, 2);
    a.ret();
    a.bind(done);
    a.hlt();
    g.load(a);
    U64 rsp0 = g.reg(R::rsp);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 7ULL);
    EXPECT_EQ(g.reg(R::rsp), rsp0);  // balanced stack
}

TEST(Exec, IndirectCallAndJump)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label f = a.newLabel(), done = a.newLabel();
    a.movLabel(R::rdx, f);
    a.call(R::rdx);
    a.jmp(done);
    a.bind(f);
    a.mov(R::rax, 99);
    a.ret();
    a.bind(done);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 99ULL);
}

TEST(Exec, AdcChain128BitAdd)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    // (2^64 - 1) + 1 with carry into the high half.
    a.movImm64(R::rax, ~0ULL);
    a.mov(R::rbx, 5);         // high half A
    a.mov(R::rcx, 1);         // low half B
    a.mov(R::rdx, 7);         // high half B
    a.add(R::rax, R::rcx);    // low sum -> 0, CF=1
    a.adc(R::rbx, R::rdx);    // high sum + carry -> 13
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 0ULL);
    EXPECT_EQ(g.reg(R::rbx), 13ULL);
}

TEST(Exec, MulDivRoundTrip)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rax, 0x123456789ULL);
    a.mov(R::rbx, 100001);
    a.mul(R::rbx);            // rdx:rax = product
    a.div(R::rbx);            // back to original
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 0x123456789ULL);
    EXPECT_EQ(g.reg(R::rdx), 0ULL);
}

TEST(Exec, SignedDivision)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rax, (U64)(S64)-1000);
    a.movImm64(R::rdx, ~0ULL);  // sign extension of rax
    a.mov(R::rbx, 7);
    a.idiv(R::rbx);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ((S64)g.reg(R::rax), -142);
    EXPECT_EQ((S64)g.reg(R::rdx), -6);
}

TEST(Exec, RepMovsbCopiesExactly)
{
    GuestRunner g;
    // Pre-fill source data.
    std::vector<U8> src(300);
    for (size_t i = 0; i < src.size(); i++)
        src[i] = (U8)(i * 7 + 3);
    Assembler a(CODE_BASE);
    a.movImm64(R::rsi, DATA_BASE);
    a.movImm64(R::rdi, DATA_BASE + 0x1000);
    a.mov(R::rcx, 300);
    a.cld();
    a.repMovsb();
    a.hlt();
    g.load(a);
    g.writeGuest(DATA_BASE, src.data(), src.size());
    g.execute();
    for (size_t i = 0; i < src.size(); i++)
        ASSERT_EQ(g.readGuest(DATA_BASE + 0x1000 + i, 1),
                  src[i]);
    EXPECT_EQ(g.reg(R::rcx), 0ULL);
    EXPECT_EQ(g.reg(R::rsi), DATA_BASE + 300);
    EXPECT_EQ(g.reg(R::rdi), DATA_BASE + 0x1000 + 300);
}

TEST(Exec, RepWithZeroCountDoesNothing)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rsi, DATA_BASE);
    a.movImm64(R::rdi, DATA_BASE + 0x1000);
    a.mov(R::rcx, 0);
    a.repMovsb();
    a.mov(R::rax, 123);
    a.hlt();
    g.load(a);
    g.writeGuest(DATA_BASE, "X", 1);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 123ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE + 0x1000, 1), 0ULL);
    EXPECT_EQ(g.reg(R::rsi), DATA_BASE);
}

TEST(Exec, RepStosbFills)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rdi, DATA_BASE);
    a.mov(R::rax, 0xAB);
    a.mov(R::rcx, 64);
    a.repStosb();
    a.hlt();
    g.load(a);
    g.execute();
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(g.readGuest(DATA_BASE + i, 1), 0xABULL);
    EXPECT_EQ(g.readGuest(DATA_BASE + 64, 1), 0ULL);
}

TEST(Exec, FlagsPreservedByVariableShiftOfZero)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 5);
    a.cmp(R::rax, 5);         // ZF = 1
    a.mov(R::rcx, 0);
    a.shlCl(R::rbx);          // count 0: flags must survive
    Label taken = a.newLabel();
    a.jcc(COND_e, taken);
    a.mov(R::rdx, 111);       // wrong path
    a.hlt();
    a.bind(taken);
    a.mov(R::rdx, 222);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rdx), 222ULL);
}

TEST(Exec, SetccCmovcc)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 3);
    a.cmp(R::rax, 10);
    a.setcc(COND_l, R::rbx);        // 1
    a.mov(R::rcx, 77);
    a.mov(R::rdx, 88);
    a.cmovcc(COND_l, R::rcx, R::rdx);  // rcx = 88
    a.cmovcc(COND_nl, R::rsi, R::rdx); // not taken (rsi unchanged = 0)
    a.hlt();
    g.load(a);
    g.ctx.regs[REG_rsi] = 0;
    g.execute();
    EXPECT_EQ(g.reg(R::rbx), 1ULL);
    EXPECT_EQ(g.reg(R::rcx), 88ULL);
    EXPECT_EQ(g.reg(R::rsi), 0ULL);
}

TEST(Exec, AtomicXaddCmpxchg)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.movStoreImm32(Mem::at(R::rbx), 40);
    a.mov(R::rax, 2);
    a.lockXadd(Mem::at(R::rbx), R::rax);   // mem 42, rax 40
    a.mov(R::rsi, R::rax);
    // cmpxchg success: rax == mem (42)? set mem = 100.
    a.mov(R::rax, 42);
    a.mov(R::rcx, 100);
    a.lockCmpxchg(Mem::at(R::rbx), R::rcx);
    a.setcc(COND_e, R::rdi);               // 1 on success
    // cmpxchg failure: rax(42) != mem(100): rax <- 100.
    a.mov(R::rcx, 555);
    a.lockCmpxchg(Mem::at(R::rbx), R::rcx);
    a.setcc(COND_e, R::rdx);               // 0 on failure
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rsi), 40ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE, 8), 100ULL);
    EXPECT_EQ(g.reg(R::rdi), 1ULL);
    EXPECT_EQ(g.reg(R::rdx), 0ULL);
    EXPECT_EQ(g.reg(R::rax), 100ULL);
}

TEST(Exec, XchgMemory)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.movStoreImm32(Mem::at(R::rbx), 7);
    a.mov(R::rax, 9);
    a.xchg(R::rax, Mem::at(R::rbx));
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 7ULL);
    EXPECT_EQ(g.readGuest(DATA_BASE, 8), 9ULL);
}

TEST(Exec, UnalignedAndPageCrossingAccess)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    U64 cross = DATA_BASE + PAGE_SIZE - 3;
    a.movImm64(R::rbx, cross);
    a.movImm64(R::rax, 0xCAFEBABEDEADBEEFULL);
    a.mov(Mem::at(R::rbx), R::rax);   // crosses a page boundary
    a.mov(R::rcx, Mem::at(R::rbx));
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rcx), 0xCAFEBABEDEADBEEFULL);
    EXPECT_EQ(g.readGuest(cross, 8), 0xCAFEBABEDEADBEEFULL);
}

TEST(Exec, PushfPopfRoundTrip)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 1);
    a.cmp(R::rax, 1);        // ZF=1
    a.pushfq();
    a.mov(R::rbx, 0);
    a.cmp(R::rax, 0);        // ZF=0 (clobber)
    a.popfq();               // restore ZF=1
    Label z = a.newLabel();
    a.jcc(COND_e, z);
    a.mov(R::rcx, 1);
    a.hlt();
    a.bind(z);
    a.mov(R::rcx, 2);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rcx), 2ULL);
}

TEST(Exec, SseScalarDoubleComputation)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 6);
    a.cvtsi2sd(X::xmm0, R::rax);       // 6.0
    a.mov(R::rbx, 7);
    a.cvtsi2sd(X::xmm1, R::rbx);       // 7.0
    a.mulsd(X::xmm0, X::xmm1);         // 42.0
    a.addsd(X::xmm0, X::xmm1);         // 49.0
    a.sqrtsd(X::xmm2, X::xmm0);        // 7.0
    a.cvttsd2si(R::rcx, X::xmm2);
    a.comisd(X::xmm2, X::xmm1);        // equal -> ZF
    a.setcc(COND_e, R::rdx);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rcx), 7ULL);
    EXPECT_EQ(g.reg(R::rdx), 1ULL);
}

TEST(Exec, X87StackOps)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    double values[2] = {1.5, 2.25};
    a.movImm64(R::rbx, DATA_BASE);
    a.fldQ(Mem::at(R::rbx));           // push 1.5
    a.fldQ(Mem::at(R::rbx, 8));        // push 2.25
    a.faddp();                         // 3.75
    a.fstpQ(Mem::at(R::rbx, 16));
    a.hlt();
    g.load(a);
    g.writeGuest(DATA_BASE, values, sizeof(values));
    g.execute();
    double result;
    U64 raw = g.readGuest(DATA_BASE + 16, 8);
    memcpy(&result, &raw, 8);
    EXPECT_DOUBLE_EQ(result, 3.75);
}

TEST(Exec, RdtscCpuid)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.rdtsc();
    a.mov(R::rsi, R::rax);
    a.mov(R::rax, 0);
    a.cpuid();
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_EQ(g.reg(R::rsi), 100ULL);  // stub TSC
    EXPECT_EQ(g.reg(R::rax), 1ULL);    // cpuid leaf count
}

TEST(Exec, HypercallFromKernelMode)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 42);       // hypercall number
    a.mov(R::rdi, 1);
    a.mov(R::rsi, 2);
    a.mov(R::rdx, 3);
    a.hypercall();
    a.hlt();
    g.load(a);
    g.setCallResult(0x5555);
    g.execute();
    ASSERT_EQ(g.hypercallLog().size(), 1u);
    EXPECT_EQ(g.hypercallLog()[0].nr, 42ULL);
    EXPECT_EQ(g.hypercallLog()[0].a1, 1ULL);
    EXPECT_EQ(g.reg(R::rax), 0x5555ULL);
}

TEST(Exec, PtlcallBreakout)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 7);
    a.ptlcall();
    a.hlt();
    g.load(a);
    g.execute();
    ASSERT_EQ(g.ptlcallLog().size(), 1u);
    EXPECT_EQ(g.ptlcallLog()[0], 7ULL);
}

TEST(Exec, SelfModifyingCodeInvalidatesAndReexecutes)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    // Patch the "mov rax, 1" immediate (at patch_site+3..6) to 2,
    // then jump back and re-execute it.
    Label patch = a.newLabel(), again = a.newLabel(), done = a.newLabel();
    a.mov(R::rbx, 0);             // pass counter
    a.bind(again);
    Label site = a.newLabel();
    a.bind(site);
    a.mov(R::rax, 1);             // B8 01 00 00 00 (patched later)
    a.inc(R::rbx);
    a.cmp(R::rbx, 2);
    a.jcc(COND_e, done);
    // First pass: patch the immediate byte to 2 and loop.
    a.bind(patch);
    a.movLabel(R::rdx, site);
    a.mov(R::rcx, 2);
    a.mov8(Mem::at(R::rdx, 1), R::rcx);  // overwrite imm byte
    a.jmp(again);
    a.bind(done);
    a.hlt();
    g.load(a);
    g.execute();
    // Second execution of the patched instruction must see imm = 2.
    EXPECT_EQ(g.reg(R::rax), 2ULL);
    EXPECT_GT(g.stats().get("bbcache/smc_invalidations"), 0ULL);
}

TEST(Exec, X87StoreOverCodeReexecutes)
{
    // fstp (a microcode store) writes 8 bytes over a routine that has
    // already run; the next call must run the stored bytes.
    Assembler patch(0);
    patch.mov(R::rax, 2);         // B8 02 00 00 00
    patch.ret();
    patch.nop();
    patch.nop();
    std::vector<U8> bytes = patch.finalize();
    ASSERT_EQ(bytes.size(), 8u);

    GuestRunner g;
    Assembler a(CODE_BASE);
    Label routine = a.newLabel();
    a.call(routine);
    a.mov(R::rbx, R::rax);        // first result
    a.movImm64(R::rsi, DATA_BASE);
    a.fldQ(Mem::at(R::rsi));
    a.movLabel(R::rdx, routine);
    a.fstpQ(Mem::at(R::rdx));
    a.call(routine);
    a.hlt();
    a.bind(routine);
    a.mov(R::rax, 1);
    a.ret();
    a.nop();
    a.nop();
    g.load(a);
    g.writeGuest(DATA_BASE, bytes.data(), bytes.size());
    g.execute();
    EXPECT_EQ(g.reg(R::rbx), 1ULL);
    EXPECT_EQ(g.reg(R::rax), 2ULL);
    EXPECT_GT(g.stats().get("bbcache/smc_invalidations"), 0ULL);
}

TEST(Exec, DivideErrorDeliveredToHandler)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label handler = a.newLabel();
    // Register handler and a kernel stack.
    a.mov(R::rdx, 0);
    a.mov(R::rax, 0);
    a.div(R::rax);              // #DE
    a.mov(R::rbx, 111);         // never reached
    a.hlt();
    a.bind(handler);
    a.pop(R::rsi);              // fault word
    a.mov(R::rbx, 222);
    a.hlt();
    g.load(a);
    g.ctx.event_callback = a.labelVa(handler);
    g.ctx.kernel_sp = STACK_TOP - 0x1000;
    g.execute();
    EXPECT_EQ(g.reg(R::rbx), 222ULL);
    // Fault word carries the fault kind in the top bits.
    EXPECT_EQ(g.reg(R::rsi) >> 48, (U64)GuestFault::DivideError);
}

TEST(Exec, PageFaultReportsAddress)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label handler = a.newLabel();
    a.movImm64(R::rbx, 0x12345000ULL);  // unmapped
    a.mov(R::rax, Mem::at(R::rbx, 0x67));
    a.hlt();
    a.bind(handler);
    a.pop(R::rsi);              // fault word
    a.mov(R::rdi, 1);
    a.hlt();
    g.load(a);
    g.ctx.event_callback = a.labelVa(handler);
    g.ctx.kernel_sp = STACK_TOP - 0x1000;
    g.execute();
    EXPECT_EQ(g.reg(R::rdi), 1ULL);
    EXPECT_EQ(g.reg(R::rsi) >> 48, (U64)GuestFault::PageFaultRead);
    EXPECT_EQ(g.reg(R::rsi) & lowMask(48), 0x12345067ULL);
}

/**
 * Step `g` up to the instruction at `fault_rip`, then step it once:
 * its store faults after earlier uops of the same instruction produced
 * a value (and, for add, flags). With no fault handler the VCPU halts
 * where it stands, so every register, the flags and rip must read as
 * they did before the instruction.
 */
void
expectFaultCommitsNothing(GuestRunner &g, U64 fault_rip)
{
    while (g.ctx.rip.raw() != fault_rip)
        ASSERT_EQ(g.engine.stepInsn().insns, 1);
    const Context before = g.ctx;
    FunctionalEngine::StepResult r = g.engine.stepInsn();
    EXPECT_EQ(r.fault_delivered, GuestFault::PageFaultWrite);
    EXPECT_EQ(r.insns, 0);
    EXPECT_FALSE(g.ctx.running);
    for (int reg = 0; reg < NUM_UOP_REGS; reg++)
        EXPECT_EQ(g.ctx.regs[reg], before.regs[reg]) << "register " << reg;
    EXPECT_EQ(g.ctx.flags, before.flags);
    EXPECT_EQ(g.ctx.rip, before.rip);
}

/** add [read-only], rax: load, add (value and flags), faulting store. */
TEST(Exec, FaultingStoreLeavesRegistersAndFlags)
{
    constexpr U64 RO_PAGE = DATA_BASE - PAGE_SIZE;
    GuestRunner g;
    g.map(RO_PAGE, PAGE_SIZE, Pte::US | Pte::NX);  // zero-filled
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, RO_PAGE);
    a.mov(R::rax, ~0ULL);            // 0 + ~0 would set SF and PF
    U64 fault_rip = a.here();
    a.add(Mem::at(R::rbx), R::rax);
    a.hlt();
    g.load(a);
    expectFaultCommitsNothing(g, fault_rip);
}

/** call onto an unmapped stack: the return-address temporary is
 *  produced, then the push of it faults. */
TEST(Exec, FaultingCallLeavesRegisters)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label target = a.newLabel();
    a.movImm64(R::rsp, 0x12345008ULL);  // unmapped
    U64 fault_rip = a.here();
    a.call(target);
    a.bind(target);
    a.hlt();
    g.load(a);
    expectFaultCommitsNothing(g, fault_rip);
}

/** Later uops read what earlier uops of the same instruction wrote:
 *  add [mem] loads into a temporary, adds into it (setting flags) and
 *  stores it; pop loads into a temporary, bumps rsp and moves it. */
TEST(Exec, UopsReadTemporariesOfTheirOwnInstruction)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.movImm64(R::rbx, DATA_BASE);
    a.mov(R::rax, ~0ULL);
    a.mov(Mem::at(R::rbx), R::rax);  // [rbx] = ~0
    a.mov(R::rax, 1);
    a.add(Mem::at(R::rbx), R::rax);  // [rbx] = 0, CF and ZF set
    a.setcc(COND_b, R::rcx);         // CF from the temporary's flags
    a.mov(R::rdx, 0x5A5A);
    a.push(R::rdx);
    a.pop(R::rsi);
    a.hlt();
    g.load(a);
    U64 rsp = g.ctx.regs[REG_rsp];
    g.execute();
    EXPECT_EQ(g.readGuest(DATA_BASE, 8), 0ULL);
    EXPECT_EQ(g.reg(R::rcx), 1ULL);
    EXPECT_NE(g.ctx.flags & FLAG_ZF, 0);
    EXPECT_NE(g.ctx.flags & FLAG_CF, 0);
    EXPECT_EQ(g.reg(R::rsi), 0x5A5AULL);
    EXPECT_EQ(g.ctx.regs[REG_rsp], rsp);
}

TEST(Exec, EventDeliveryAndIretq)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label handler = a.newLabel(), spin = a.newLabel();
    a.mov(R::rax, 0);
    a.sti();                    // unmask events
    a.bind(spin);
    a.inc(R::rax);
    a.cmp(R::rbx, 1);           // rbx set by handler
    a.jcc(COND_ne, spin);
    a.hlt();
    a.bind(handler);
    a.add(R::rsp, 8);           // discard fault word
    a.mov(R::rbx, 1);
    a.iretq();
    g.load(a);
    g.ctx.event_callback = a.labelVa(handler);
    g.ctx.kernel_sp = STACK_TOP - 0x1000;
    g.ctx.regs[REG_rbx] = 0;

    // Run a few instructions, then raise an event.
    for (int i = 0; i < 5; i++)
        g.engine.stepInsn(SimCycle((U64)i));
    g.ctx.event_pending = true;
    g.execute();
    EXPECT_EQ(g.reg(R::rbx), 1ULL);
    EXPECT_GT(g.reg(R::rax), 1ULL);
    // iretq restored the spin loop's context: events unmasked again.
    EXPECT_FALSE(g.ctx.event_mask);
}

TEST(Exec, SyscallSysretRoundTrip)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label kernel_entry = a.newLabel(), user = a.newLabel();
    // Kernel setup: register lstar, drop to user code via sysret-like
    // path is complex; instead start in user mode directly.
    a.bind(user);
    a.mov(R::rax, 5);           // syscall number
    a.mov(R::rdi, 1000);
    a.syscall();
    a.mov(R::rsi, R::rax);      // syscall result
    a.mov(R::r14, 1);           // user-mode marker after return
    a.ud2();                    // end of user code: fault to terminator
    Label terminator = a.newLabel();
    a.bind(terminator);
    a.hlt();
    a.bind(kernel_entry);
    // Kernel: result = rdi + 1; return.
    a.mov(R::rax, R::rdi);
    a.add(R::rax, 1);
    a.sysret();
    g.load(a);
    g.ctx.kernel_mode = false;
    g.ctx.lstar = a.labelVa(kernel_entry);
    g.ctx.kernel_sp = STACK_TOP - 0x2000;
    g.ctx.event_callback = a.labelVa(terminator);  // ud2 ends the run
    g.execute();
    EXPECT_EQ(g.reg(R::rsi), 1001ULL);
    EXPECT_EQ(g.reg(R::r14), 1ULL);  // reached user mode again
    EXPECT_FALSE(g.ctx.running);
}

TEST(Exec, UserModeCannotHlt)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    Label handler = a.newLabel();
    a.hlt();                    // #GP from user mode
    a.bind(handler);
    a.mov(R::rbx, 77);
    a.hlt();                    // this handler runs in kernel mode: ok
    g.load(a);
    g.ctx.kernel_mode = false;
    g.ctx.event_callback = a.labelVa(handler);
    g.ctx.kernel_sp = STACK_TOP - 0x1000;
    // User pages must be user-accessible for the fetch; they are (US).
    g.execute();
    EXPECT_EQ(g.reg(R::rbx), 77ULL);
    EXPECT_FALSE(g.ctx.running);
}

TEST(Exec, BasicBlockCacheHitsOnLoops)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rcx, 50);
    Label top = a.label();
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    g.load(a);
    g.execute();
    EXPECT_GT(g.stats().get("bbcache/hits"), 40ULL);
    EXPECT_LE(g.stats().get("bbcache/misses"), 4ULL);
    EXPECT_EQ(g.stats().get("commit/insns"), 1 + 50 * 2 + 1ULL);
}

TEST(Exec, UopCountsAreReasonable)
{
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 1);       // 1 uop
    a.add(R::rax, 2);       // 1 uop
    a.push(R::rax);         // 2 uops
    a.pop(R::rbx);          // 3 uops
    a.hlt();                // 1 uop (assist)
    g.load(a);
    g.execute();
    EXPECT_EQ(g.stats().get("commit/insns"), 5ULL);
    EXPECT_EQ(g.stats().get("commit/uops"), 8ULL);
}

}  // namespace
}  // namespace ptl
