/**
 * Robustness coverage: decoder fuzzing (arbitrary bytes must decode to
 * something executable-or-#UD, never crash the host), guest crash
 * handling through the kernel's fatal-fault path, pipeline debug dump,
 * and a two-VCPU machine with per-core OOO pipelines.
 */

#include <gtest/gtest.h>

#include "core/ooo/ooocore.h"
#include "guest_harness.h"
#include "kernel/guestkernel.h"
#include "kernel/guestlib.h"
#include "lib/rng.h"
#include "sys/machine.h"

namespace ptl {
namespace {

TEST(Fuzz, DecoderNeverCrashesOnRandomBytes)
{
    Rng rng(0xF0CCED);
    for (int i = 0; i < 200'000; i++) {
        U8 bytes[MAX_X86_INSN_BYTES];
        for (U8 &b : bytes)
            b = (U8)rng.next();
        size_t avail = 1 + rng.below(MAX_X86_INSN_BYTES);
        X86Insn d = decodeX86(bytes, avail, 0x1000);
        // Either valid with a sane length, or invalid.
        if (d.valid) {
            ASSERT_GT(d.length, 0);
            ASSERT_LE((size_t)d.length, avail);
        }
    }
}

TEST(Fuzz, TranslatorNeverCrashesOnRandomBytes)
{
    Rng rng(0xBADC0DE);
    for (int i = 0; i < 20'000; i++) {
        U8 bytes[MAX_X86_INSN_BYTES];
        for (U8 &b : bytes)
            b = (U8)rng.next();
        X86Insn d = decodeX86(bytes, sizeof(bytes), 0x2000);
        std::vector<Uop> uops;
        translateOne(d, uops);
        ASSERT_FALSE(uops.empty());
        ASSERT_TRUE(uops.back().eom);
        ASSERT_TRUE(uops.front().som);
        ASSERT_LE(uops.size(), 16u);
    }
}

TEST(Fuzz, RandomCodeExecutionIsContained)
{
    // Execute random bytes as guest code with a fault handler armed:
    // every path must end in a handled fault or run instructions, and
    // must never corrupt the host.
    for (U64 seed = 1; seed <= 20; seed++) {
        GuestRunner g;
        Rng rng(seed * 7919);
        std::vector<U8> junk(256);
        for (U8 &b : junk)
            b = (U8)rng.next();
        Assembler handler_asm(CODE_BASE + 0x1000);
        handler_asm.hlt();
        std::vector<U8> h = handler_asm.finalize();
        g.writeGuest(CODE_BASE, junk.data(), junk.size());
        g.writeGuest(CODE_BASE + 0x1000, h.data(), h.size());
        g.ctx.rip = GuestVirt(CODE_BASE);
        g.ctx.event_callback = CODE_BASE + 0x1000;
        g.ctx.kernel_sp = STACK_TOP - 0x1000;
        int steps = 0;
        while (g.ctx.running && steps < 2000) {
            g.engine.stepInsn(SimCycle((U64)steps));
            steps++;
        }
        // Either it halted via the handler or is still chewing junk;
        // both are fine — the property is no host crash/panic.
        SUCCEED();
    }
}

TEST(Kernel, GuestCrashReportsAndShutsDown)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.core_freq_hz = 10'000'000;
    cfg.guest_mem_bytes = 32 << 20;
    Machine machine(cfg);
    KernelBuilder builder(machine.addressSpace(), machine.vcpu(0),
                          machine.timerPeriodCycles());
    Assembler &ua = builder.userAsm();
    // User program dereferences an unmapped address.
    ua.movImm64(R::rbx, 0xDEAD00000000ULL);
    ua.mov(R::rax, Mem::at(R::rbx));
    ua.hlt();  // never reached
    builder.setInitTask(USER_TEXT_VA, 0);
    builder.build();
    machine.finalizeCores();
    Machine::RunResult r = machine.run(100'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 0xDEADULL);
    EXPECT_NE(machine.console().output().find("KERNEL FAULT"),
              std::string::npos);
}

TEST(MachineConfig, ZeroGuestMemoryIsFatal)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyOption("guest_mem_bytes=0");
    EXPECT_DEATH({ Machine machine(cfg); },
                 "guest memory of 0 bytes holds no 4096-byte frame");
}

TEST(OooDebug, DebugStateRendersPipeline)
{
    SimConfig cfg = testConfig(SimConfig::preset("k8"));
    cfg.core = "ooo";
    BareMachine r(cfg);
    mapTestLayout(r);
    Assembler a(CODE_BASE);
    a.mov(R::rcx, 100);
    Label top = a.label();
    a.imul(R::rax, R::rcx);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    r.load(a);
    r.finalizeCores();
    // Run past the cold I-cache fill so the ROB holds in-flight work.
    std::string dump;
    for (U64 c = 0; c < 2000; c++) {
        r.core(0).cycle(SimCycle(c));
        if (c > 200) {
            dump = r.core(0).debugState();
            if (dump.find("rob[") != std::string::npos)
                break;
        }
    }
    EXPECT_NE(dump.find("thread 0"), std::string::npos);
    EXPECT_NE(dump.find("rob["), std::string::npos);
    EXPECT_NE(dump.find("iq[0]"), std::string::npos);
}

TEST(MultiVcpu, TwoCoreMachineRunsBareMetal)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.vcpu_count = 2;
    cfg.coherence = CoherenceKind::Moesi;
    cfg.guest_mem_bytes = 32 << 20;
    Machine m(cfg);
    AddressSpace &as = m.addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(0x400000), 16 * PAGE_SIZE,
                Pte::RW | Pte::US);
    as.mapRange(cr3, GuestVirt(0x600000), 16 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);
    as.mapRange(cr3, GuestVirt(0x7E0000), 32 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);

    Assembler a(0x400000);
    a.movImm64(R::rbx, 0x600000);
    a.mov(R::rcx, 500);
    Label top = a.label();
    a.lockInc(Mem::at(R::rbx));
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
    std::vector<U8> image = a.finalize();
    for (int v = 0; v < 2; v++) {
        Context &ctx = m.vcpu(v);
        ctx.cr3 = cr3;
        ctx.kernel_mode = true;
        ctx.rip = GuestVirt(0x400000);
        ctx.regs[REG_rsp] = 0x7FF000 - (U64)v * 0x8000;
    }
    for (size_t i = 0; i < image.size(); i++) {
        GuestAccess acc = guestTranslate(as, m.vcpu(0),
                                         GuestVirt(0x400000 + i),
                                         MemAccess::Write);
        m.physMem().writeBytes(acc.paddr, &image[i], 1);
    }
    m.finalizeCores();
    Machine::RunResult r = m.run(50'000'000);
    EXPECT_TRUE(r.stalled);  // both VCPUs halted
    U64 counter = 0;
    guestRead(as, m.vcpu(0), GuestVirt(0x600000), 8, counter);
    EXPECT_EQ(counter, 1000ULL);
    EXPECT_GT(m.stats().get("coherence/cache_to_cache_transfers"), 0ULL);
}

}  // namespace
}  // namespace ptl
