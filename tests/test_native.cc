/**
 * Native-mode co-simulation tests: mode switching (ptlcall, triggers,
 * command lists), seamless-transition validation, divergence binary
 * search, TSC continuity, and checkpoint / device-trace machinery.
 */

#include <gtest/gtest.h>

#include "guest_harness.h"
#include "native/cosim.h"
#include "native/triggers.h"
#include "sys/checkpoint.h"

namespace ptl {
namespace {

/** Build a bare-metal deterministic machine (no kernel, no timer)
 *  running `body` and halting. `patch` may alter the image. */
std::unique_ptr<Machine>
bareMachine(void (*body)(Assembler &), U64 patch_va = 0, U8 patch_byte = 0)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "ooo";
    cfg.commit_checker = true;
    cfg.guest_mem_bytes = 16 << 20;
    auto m = std::make_unique<Machine>(cfg);
    AddressSpace &as = m->addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(0x400000), 64 * PAGE_SIZE,
                Pte::RW | Pte::US);
    as.mapRange(cr3, GuestVirt(0x600000), 64 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);
    as.mapRange(cr3, GuestVirt(0x7F0000), 16 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);

    Assembler a(0x400000);
    body(a);
    std::vector<U8> image = a.finalize();
    Context &ctx = m->vcpu(0);
    ctx.cr3 = cr3;
    ctx.kernel_mode = true;
    ctx.rip = GuestVirt(0x400000);
    ctx.regs[REG_rsp] = 0x7FF000;
    for (size_t i = 0; i < image.size(); i++) {
        GuestAccess acc =
            guestTranslate(as, ctx, GuestVirt(0x400000 + i),
                           MemAccess::Write);
        m->physMem().writeBytes(acc.paddr, &image[i], 1);
    }
    if (patch_va) {
        GuestAccess acc =
            guestTranslate(as, ctx, GuestVirt(patch_va), MemAccess::Write);
        m->physMem().writeBytes(acc.paddr, &patch_byte, 1);
    }
    m->finalizeCores();
    return m;
}

void
computeBody(Assembler &a)
{
    a.mov(R::rax, 1);
    a.mov(R::rcx, 400);
    Label top = a.label();
    a.imul(R::rax, R::rax, 6364136223846793005LL & 0x7fffffff);
    a.add(R::rax, 1442695040888963407LL & 0x7fffffff);
    a.movImm64(R::rbx, 0x600000);
    a.mov(Mem::idx(R::rbx, R::rcx, 8), R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.hlt();
}

TEST(Native, PureNativeRunMatchesSimulation)
{
    auto sim = bareMachine(computeBody);
    sim->run(10'000'000);
    auto native = bareMachine(computeBody);
    native->setMode(Machine::Mode::Native);
    native->run(10'000'000);
    ContextDiff diff = compareContexts(sim->vcpu(0), native->vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
    EXPECT_EQ(hashGuestMemory(sim->physMem()),
              hashGuestMemory(native->physMem()));
    // Native mode is much faster in simulated wall-clock terms too:
    // it retires ~native_ipc instructions per cycle.
    EXPECT_LT(native->timeKeeper().cycle(), sim->timeKeeper().cycle());
}

TEST(Native, ModeSwitchingIsSeamless)
{
    MachineFactory factory = [] { return bareMachine(computeBody); };
    CosimResult r = validateModeSwitching(
        factory, Machine::Mode::Simulation, /*switch_cycles=*/700);
    EXPECT_TRUE(r.equal) << r.diff;
    EXPECT_GT(r.switches, 3ULL);
}

TEST(Native, ModeSwitchingSeamlessVsNativeReference)
{
    MachineFactory factory = [] { return bareMachine(computeBody); };
    CosimResult r = validateModeSwitching(
        factory, Machine::Mode::Native, /*switch_cycles=*/333);
    EXPECT_TRUE(r.equal) << r.diff;
}

TEST(Native, DivergenceBinarySearchFindsPatchedInstruction)
{
    // Factory B patches the immediate of the 30th loop iteration...
    // simpler: patch the initial "mov rax, 1" immediate to 2; states
    // diverge at the very first instruction.
    MachineFactory fa = [] { return bareMachine(computeBody); };
    MachineFactory fb = [] {
        return bareMachine(computeBody, 0x400001, 0x02);
    };
    U64 diverge = findDivergenceInsn(fa, fb, 512);
    EXPECT_EQ(diverge, 1ULL);

    // Identical factories never diverge.
    EXPECT_EQ(findDivergenceInsn(fa, fa, 256), ~0ULL);
}

TEST(Native, RipTriggerSwitchesToSimulation)
{
    auto m = bareMachine(computeBody);
    m->setMode(Machine::Mode::Native);
    // Trigger at the loop head (runs after the two setup insns).
    m->setRipTrigger(0x400000 + 5 + 5);  // after mov rax / mov rcx
    m->run(5'000'000);
    // Machine finished in simulation mode (trigger fired early on).
    EXPECT_EQ(m->mode(), Machine::Mode::Simulation);
    EXPECT_GT(m->stats().get("external/mode_switches"), 0ULL);
    EXPECT_GT(m->stats().get("core0/commit/insns"), 1000ULL);
}

TEST(Native, CommandListStopInsns)
{
    auto m = bareMachine(computeBody);
    CommandRunner runner(*m);
    runner.run("-run -stopinsns 100");
    U64 insns = m->totalCommittedInsns();
    EXPECT_GE(insns, 100ULL);
    EXPECT_LT(insns, 200ULL);   // bounded promptly
}

TEST(Native, CommandListPhases)
{
    auto m = bareMachine(computeBody);
    CommandRunner runner(*m);
    // Simulate 50 insns, go native for 120 insns, back to sim to finish.
    runner.run("-core ooo -run -stopinsns 50 : -native -stopinsns 120 "
               ": -run");
    EXPECT_GT(m->stats().get("external/mode_switches"), 1ULL);
    EXPECT_GT(m->stats().get("external/cycles_in_mode/native"), 0ULL);
    EXPECT_FALSE(m->vcpu(0).running);  // ran to the hlt
}

TEST(Native, CommandListParsing)
{
    auto phases = parseCommandList(
        "-core smt -run -stopinsns 10m : -native");
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_TRUE(phases[0].to_sim);
    EXPECT_EQ(phases[0].core, "smt");
    EXPECT_EQ(phases[0].stop_insns, 10'000'000ULL);
    EXPECT_TRUE(phases[1].to_native);
    EXPECT_EQ(parseScaledCount("64k"), 64'000ULL);
    EXPECT_EQ(parseScaledCount("2b"), 2'000'000'000ULL);
    EXPECT_EQ(parseScaledCount("123"), 123ULL);
}

TEST(Native, TscIsMonotonicAcrossModeSwitches)
{
    // Guest reads TSC, requests native mode via ptlcall, reads again,
    // requests simulation, reads a third time: strictly increasing.
    auto m = bareMachine([](Assembler &a) {
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r12, R::rax);          // t1
        a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_NATIVE);
        a.ptlcall();
        a.mov(R::rcx, 200);
        Label spin1 = a.label();
        a.dec(R::rcx);
        a.jcc(COND_ne, spin1);
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r13, R::rax);          // t2
        a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_SIM);
        a.ptlcall();
        a.mov(R::rcx, 200);
        Label spin2 = a.label();
        a.dec(R::rcx);
        a.jcc(COND_ne, spin2);
        a.rdtsc();
        a.shl(R::rdx, 32);
        a.or_(R::rax, R::rdx);
        a.mov(R::r14, R::rax);          // t3
        a.hlt();
    });
    m->run(10'000'000);
    U64 t1 = m->vcpu(0).regs[REG_r12];
    U64 t2 = m->vcpu(0).regs[REG_r13];
    U64 t3 = m->vcpu(0).regs[REG_r14];
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
    EXPECT_GT(m->stats().get("external/mode_switches"), 1ULL);
}

TEST(Native, CheckpointRestoreReproducesRun)
{
    auto m = bareMachine(computeBody);
    // Run a little, checkpoint, finish, record state; restore and
    // finish again: identical end state.
    m->run(500);
    const SimCycle at_capture = m->timeKeeper().cycle();
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    m->run(10'000'000);
    U64 hash1 = hashGuestMemory(m->physMem());
    Context end1 = m->vcpu(0);

    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(m->timeKeeper().cycle(), at_capture);
    m->run(10'000'000);
    EXPECT_EQ(hashGuestMemory(m->physMem()), hash1);
    ContextDiff diff = compareContexts(end1, m->vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
}

/** Spin `n` times on a dec/jnz loop. */
void
spin(Assembler &a, U64 n)
{
    a.mov(R::rcx, n);
    Label top = a.label();
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
}

/** Go native, spin, come back to simulation, spin, read the TSC into
 *  r14, halt. */
void
nativeSpinBody(Assembler &a)
{
    a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_NATIVE);
    a.ptlcall();
    spin(a, 2000);
    a.mov(R::rax, (U64)PTLCALL_SWITCH_TO_SIM);
    a.ptlcall();
    spin(a, 200);
    a.rdtsc();
    a.shl(R::rdx, 32);
    a.or_(R::rax, R::rdx);
    a.mov(R::r14, R::rax);
    a.hlt();
}

/**
 * The run mode is part of the machine image: a checkpoint taken while
 * the guest runs natively resumes natively, so the restored run ends
 * at the same cycle with the same guest-visible TSC. A restore that
 * dropped the mode would simulate the rest of the native spin, which
 * takes more cycles.
 */
TEST(Native, CheckpointInNativeModeRestoresMode)
{
    auto m = bareMachine(nativeSpinBody);
    for (int i = 0; m->mode() != Machine::Mode::Native; i++) {
        ASSERT_LT(i, 100'000) << "guest never switched to native mode";
        m->run(10);
    }
    m->run(50);
    ASSERT_EQ(m->mode(), Machine::Mode::Native);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    m->run(10'000'000);
    const SimCycle end1 = m->timeKeeper().cycle();
    const U64 tsc1 = m->vcpu(0).regs[REG_r14];
    ASSERT_FALSE(m->vcpu(0).running);  // ran to the hlt

    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(m->mode(), Machine::Mode::Native);
    m->run(10'000'000);
    EXPECT_FALSE(m->vcpu(0).running);
    EXPECT_EQ(m->timeKeeper().cycle(), end1);
    EXPECT_EQ(m->vcpu(0).regs[REG_r14], tsc1);
}

/** Capture, restore, capture again: the two images are equal. */
TEST(Native, RecaptureAfterRestoreGivesEqualImage)
{
    auto m = bareMachine(computeBody);
    m->run(500);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    m->run(10'000'000);
    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(captureCheckpoint(*m), ckpt);
}

// ---------------------------------------------------------------------
// Corrupt machine images: restoring one ends in fatal(), never in a
// silently misread machine.
// ---------------------------------------------------------------------

/** An unbooted machine of the given shape (capture and restore need
 *  no cores). */
std::unique_ptr<Machine>
shapedMachine(U64 guest_mem_bytes, int vcpu_count)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.guest_mem_bytes = guest_mem_bytes;
    cfg.vcpu_count = vcpu_count;
    return std::make_unique<Machine>(cfg);
}

TEST(CorruptMachineImage, TruncatedImageIsFatal)
{
    auto m = shapedMachine(16 << 20, 1);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt.pop_back();
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "truncated");
}

TEST(CorruptMachineImage, TrailingWordsAreFatal)
{
    auto m = shapedMachine(16 << 20, 1);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt.push_back(0);
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "1 trailing words");
}

TEST(CorruptMachineImage, WrongModelTagIsFatal)
{
    auto m = shapedMachine(16 << 20, 1);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt[0] ^= 1;
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "model tag");
}

TEST(CorruptMachineImage, GuestMemorySizeMismatchIsFatal)
{
    auto small = shapedMachine(16 << 20, 1);
    auto large = shapedMachine(32 << 20, 1);
    MachineCheckpoint ckpt = captureCheckpoint(*small);
    EXPECT_DEATH(restoreCheckpoint(*large, ckpt), "recorded size");
}

TEST(CorruptMachineImage, VcpuCountMismatchIsFatal)
{
    auto one = shapedMachine(16 << 20, 1);
    auto two = shapedMachine(16 << 20, 2);
    MachineCheckpoint ckpt = captureCheckpoint(*two);
    EXPECT_DEATH(restoreCheckpoint(*one, ckpt), "2-VCPU machine");
}

/** The index of the first word in which two images differ (the
 *  shorter one's size if one is a prefix of the other). */
size_t
firstDifference(const MachineCheckpoint &a, const MachineCheckpoint &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        i++;
    return i;
}

TEST(CorruptMachineImage, PacketToMissingEndpointIsFatal)
{
    auto to1 = shapedMachine(16 << 20, 1);
    auto to2 = shapedMachine(16 << 20, 1);
    const U8 payload[16] = {1, 2, 3};
    to1->net().send(1, payload, sizeof(payload));
    to2->net().send(2, payload, sizeof(payload));
    MachineCheckpoint ckpt = captureCheckpoint(*to1);
    // The packet's endpoint word precedes the per-endpoint floors.
    size_t to_ep = firstDifference(ckpt, captureCheckpoint(*to2));
    ASSERT_LT(to_ep, ckpt.size());
    ASSERT_EQ(ckpt[to_ep], 1u);
    ckpt[to_ep] = (U64)to1->net().endpointCount();
    EXPECT_DEATH(restoreCheckpoint(*to1, ckpt), "endpoint");
}

TEST(CorruptMachineImage, DiskTransferPastImageIsFatal)
{
    auto at3 = shapedMachine(16 << 20, 1);
    auto at4 = shapedMachine(16 << 20, 1);
    for (Machine *m : {at3.get(), at4.get()})
        m->disk().setImage(std::vector<U8>(16 * DISK_SECTOR_BYTES));
    ASSERT_TRUE(at3->disk().read(at3->vcpu(0), 3, 2, GuestVirt(0x1000)));
    ASSERT_TRUE(at4->disk().read(at4->vcpu(0), 4, 2, GuestVirt(0x1000)));
    MachineCheckpoint ckpt = captureCheckpoint(*at3);
    size_t sector = firstDifference(ckpt, captureCheckpoint(*at4));
    ASSERT_LT(sector, ckpt.size());
    ASSERT_EQ(ckpt[sector], 3u);
    // Sector + count wraps to 1: only an overflow-free bound sees it.
    ckpt[sector] = ~0ULL;
    EXPECT_DEATH(restoreCheckpoint(*at3, ckpt), "exceeds the 16-sector");
    // The last in-range start still restores; one past it does not.
    ckpt[sector] = 14;
    restoreCheckpoint(*at3, ckpt);
    ckpt[sector] = 15;
    EXPECT_DEATH(restoreCheckpoint(*at3, ckpt), "exceeds the 16-sector");
}

/** An unbooted machine whose only written frames are MFNs 5 and 9,
 *  each starting with kFramePattern. */
constexpr U64 kFramePattern = 0x1122334455667788ULL;

std::unique_ptr<Machine>
twoFrameMachine()
{
    auto m = shapedMachine(16 << 20, 1);
    for (U64 mfn : {5, 9})
        m->physMem().write(GuestPhys(mfn * PAGE_SIZE), kFramePattern, 8);
    return m;
}

/** The index of the MFN word of `mfn`'s frame record in `ckpt`. */
size_t
frameRecord(const MachineCheckpoint &ckpt, U64 mfn)
{
    for (size_t i = 0; i + 1 < ckpt.size(); i++) {
        if (ckpt[i] == mfn && ckpt[i + 1] == kFramePattern)
            return i;
    }
    ADD_FAILURE() << "no frame record for MFN " << mfn;
    return 0;
}

TEST(CorruptMachineImage, FrameRecordPastLastFrameIsFatal)
{
    auto m = twoFrameMachine();
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt[frameRecord(ckpt, 9)] = m->physMem().frameCount();
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "past the 4096 frames");
}

TEST(CorruptMachineImage, RepeatedFrameRecordIsFatal)
{
    auto m = twoFrameMachine();
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt[frameRecord(ckpt, 9)] = 5;
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "not above the previous");
}

TEST(CorruptMachineImage, FallingFrameRecordIsFatal)
{
    auto m = twoFrameMachine();
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    ckpt[frameRecord(ckpt, 9)] = 4;
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "not above the previous");
}

TEST(CorruptMachineImage, FrameCountPastImageIsFatal)
{
    auto m = twoFrameMachine();
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    // The record count word precedes the first record.
    const size_t count = frameRecord(ckpt, 5) - 1;
    ASSERT_EQ(ckpt[count], 2u);
    ckpt[count] = ckpt.size() - count;
    EXPECT_DEATH(restoreCheckpoint(*m, ckpt), "exceeds the");
}

// ---------------------------------------------------------------------
// Sparse memory images: a checkpoint carries the frames that hold a
// non-zero byte, whichever frames those are.
// ---------------------------------------------------------------------

/** A frame allocFrame has not handed out is still guest memory: a
 *  PTE or a new page-table base may name it, and its bytes are kept. */
TEST(SparseMemoryImage, UnallocatedFrameSurvivesRestore)
{
    auto m = shapedMachine(16 << 20, 1);
    // A twin of the same shape names the frame m hands out next.
    const Pfn next = shapedMachine(16 << 20, 1)->physMem().allocFrame();
    const GuestPhys at = GuestPhys(next.raw() * PAGE_SIZE + 123);
    m->physMem().write(at, 0xA5, 1);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    m->physMem().write(at, 0x5A, 1);
    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(m->physMem().read(at, 1), 0xA5u);
    EXPECT_EQ(m->physMem().allocFrame(), next);
}

/** Restoring onto a machine that ran on past the capture brings its
 *  memory back, including frames first written after the capture. */
TEST(SparseMemoryImage, RestoreAfterRunningOnGivesCapturedMemory)
{
    auto m = bareMachine(computeBody);
    m->run(500);
    MachineCheckpoint ckpt = captureCheckpoint(*m);
    const U64 captured = hashGuestMemory(m->physMem());
    m->run(10'000'000);
    const Pfn fresh = m->physMem().allocFrame();
    m->physMem().write(GuestPhys(fresh.raw() * PAGE_SIZE), ~0ULL, 8);
    ASSERT_NE(hashGuestMemory(m->physMem()), captured);

    restoreCheckpoint(*m, ckpt);
    EXPECT_EQ(hashGuestMemory(m->physMem()), captured);
    EXPECT_EQ(m->physMem().read(GuestPhys(fresh.raw() * PAGE_SIZE), 8),
              0u);
}

TEST(Native, DeviceTraceRecordsDiskDma)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.core_freq_hz = 10'000'000;
    cfg.guest_mem_bytes = 32 << 20;
    BootedMachine bm(cfg, [](Assembler &a, GuestLib &lib) {
        a.mov(R::rdi, 0);
        a.mov(R::rsi, 2);
        a.movImm64(R::rdx, USER_DATA_VA);
        lib.syscall(GSYS_disk_read);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
    });
    Machine &machine = bm.machine;
    std::vector<U8> image(16 * DISK_SECTOR_BYTES, 0x3C);
    machine.disk().setImage(image);

    DeviceTrace trace;
    machine.recordDevices(&trace);
    machine.run(100'000'000);

    // The DMA completion (payload + interrupt) was recorded.
    bool found = false;
    for (const TraceRecord &r : trace.all()) {
        if (r.port == PORT_DISK && r.dma_va == USER_DATA_VA
            && r.dma_data.size() == 2 * DISK_SECTOR_BYTES
            && r.dma_data[0] == 0x3C)
            found = true;
    }
    EXPECT_TRUE(found);

    // Replay injects the same DMA + event into a fresh domain image.
    Machine replay_machine(cfg);
    KernelBuilder rb(replay_machine.addressSpace(), replay_machine.vcpu(0),
                     replay_machine.timerPeriodCycles());
    rb.userAsm().hlt();
    rb.setInitTask(USER_TEXT_VA, 0);
    rb.build();
    TraceReplayer replayer(trace, replay_machine.eventChannels(),
                           replay_machine.addressSpace(),
                           replay_machine.hypervisor());
    // Fix the replayed CR3 context by construction: same builder
    // layout gives the same mappings.
    int injected = replayer.processDue(SimCycle(~0ULL - 1));
    EXPECT_GE(injected, 1);
    Context probe;
    probe.cr3 = rb.taskCr3(0);
    probe.kernel_mode = true;
    U64 v = 0;
    guestRead(replay_machine.addressSpace(), probe, GuestVirt(USER_DATA_VA),
              1, v);
    EXPECT_EQ(v, 0x3CULL);
}

/** A replayer attached to a second machine (Machine::attachReplayer)
 *  injects the recorded DMA and disk event when run() reaches the
 *  recorded cycle, and not before. */
TEST(Native, AttachedReplayerInjectsAtRecordedCycle)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.core_freq_hz = 10'000'000;
    cfg.guest_mem_bytes = 32 << 20;
    BootedMachine rec(cfg, [](Assembler &a, GuestLib &lib) {
        a.mov(R::rdi, 0);
        a.mov(R::rsi, 2);
        a.movImm64(R::rdx, USER_DATA_VA);
        lib.syscall(GSYS_disk_read);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
    });
    rec.machine.disk().setImage(
        std::vector<U8>(16 * DISK_SECTOR_BYTES, 0x3C));
    DeviceTrace trace;
    rec.machine.recordDevices(&trace);
    ASSERT_TRUE(rec.machine.run(100'000'000).shutdown);
    ASSERT_EQ(trace.size(), 1u);
    const TraceRecord &dma = trace.all()[0];
    ASSERT_EQ(dma.port, PORT_DISK);
    ASSERT_EQ(dma.dma_va, USER_DATA_VA);

    // The replay domain never touches the disk: it polls the DMA
    // target and exits with the first byte that lands there.
    BootedMachine rep(cfg, [](Assembler &a, GuestLib &lib) {
        a.movImm64(R::rbx, USER_DATA_VA);
        Label poll = a.label();
        a.movzx8(R::rdi, Mem::at(R::rbx));
        a.cmp(R::rdi, 0);
        a.jcc(COND_e, poll);
        lib.syscall(GSYS_exit);
    });
    Machine &m = rep.machine;
    TraceReplayer replayer(trace, m.eventChannels(), m.addressSpace(),
                           m.hypervisor());
    m.attachReplayer(&replayer);
    auto first_byte = [&] {
        Context probe;
        probe.cr3 = rep.builder.taskCr3(0);
        probe.kernel_mode = true;
        U64 v = 0;
        guestRead(m.addressSpace(), probe, GuestVirt(USER_DATA_VA), 1, v);
        return v;
    };

    // Cycles [0, recorded) run without the injection...
    Machine::RunResult before = m.run(dma.cycle.raw());
    ASSERT_FALSE(before.shutdown);
    EXPECT_EQ(before.cycles, dma.cycle.raw());
    EXPECT_FALSE(replayer.finished());
    EXPECT_EQ(first_byte(), 0ULL);
    const U64 sent = m.stats().get("events/sent");
    // ...and the recorded cycle itself starts with it.
    m.run(1);
    EXPECT_TRUE(replayer.finished());
    EXPECT_EQ(first_byte(), 0x3CULL);
    EXPECT_GE(m.stats().get("events/sent"), sent + 1);

    Machine::RunResult after = m.run(100'000'000);
    EXPECT_TRUE(after.shutdown);
    EXPECT_EQ(after.exit_code, 0x3CULL);
}

}  // namespace
}  // namespace ptl
