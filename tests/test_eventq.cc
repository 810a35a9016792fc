/**
 * Discrete-event kernel tests: EventQueue ordering/stats semantics,
 * EventChannels' ownership of pending timer sends, whole-machine
 * run-to-run determinism (bit-identical stats trees and snapshots),
 * checkpoint round-trips with in-flight device work, idle fast-forward
 * through the queue head, and the native-mode round-robin across
 * multiple VCPUs.
 */

#include <gtest/gtest.h>

#include "guest_harness.h"
#include "native/cosim.h"
#include "sys/checkpoint.h"

namespace ptl {
namespace {

// ---------------------------------------------------------------------
// EventQueue unit tests.
// ---------------------------------------------------------------------

struct QueueFixture
{
    StatsTree stats;
    EventQueue q{stats};
    std::vector<int> fired;

    EventQueue::Callback
    mark(int tag)
    {
        return [this, tag](SimCycle) { fired.push_back(tag); };
    }
};

TEST(EventQueue, FiresInDueThenPriorityThenSeqOrder)
{
    QueueFixture f;
    // Scheduled deliberately out of order.
    f.q.schedule(SimCycle(20), EVPRI_GENERIC, f.mark(5));
    f.q.schedule(SimCycle(10), EVPRI_NET, f.mark(3));
    f.q.schedule(SimCycle(10), EVPRI_SNAPSHOT, f.mark(1));
    f.q.schedule(SimCycle(10), EVPRI_DISK, f.mark(2));
    f.q.schedule(SimCycle(15), EVPRI_EVCHAN, f.mark(4));
    EXPECT_EQ(f.q.nextDue(), SimCycle(10));
    EXPECT_EQ(f.q.runDue(SimCycle(20)), 5);
    EXPECT_EQ(f.fired, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(f.q.empty());
    EXPECT_EQ(f.q.nextDue(), CYCLE_NEVER);
}

TEST(EventQueue, SameCyclePriorityTiesBreakByScheduleOrder)
{
    // The determinism regression: two binary heaps are free to pop
    // equal keys in arbitrary order; the insertion sequence must break
    // the tie reproducibly.
    QueueFixture f;
    for (int i = 0; i < 32; i++)
        f.q.schedule(SimCycle(7), EVPRI_EVCHAN, f.mark(i));
    f.q.runDue(SimCycle(7));
    ASSERT_EQ(f.fired.size(), 32u);
    for (int i = 0; i < 32; i++)
        EXPECT_EQ(f.fired[i], i);
}

TEST(EventQueue, CallbackMayScheduleIntoTheSamePass)
{
    QueueFixture f;
    f.q.schedule(SimCycle(5), EVPRI_GENERIC, [&f](SimCycle now) {
        f.fired.push_back(1);
        // Due at the current cycle: runs later in this same pass.
        f.q.schedule(now, EVPRI_GENERIC, f.mark(2));
        // Due in the future: stays pending.
        f.q.schedule(now + cycles(1), EVPRI_GENERIC, f.mark(3));
    });
    EXPECT_EQ(f.q.runDue(SimCycle(5)), 2);
    EXPECT_EQ(f.fired, (std::vector<int>{1, 2}));
    EXPECT_EQ(f.q.nextDue(), SimCycle(6));
}

TEST(EventQueue, ReentrantRunDuePanics)
{
    // Dispatch is not reentrant: a callback that runs the queue again
    // would pop entries out from under the outer loop's heap walk.
    QueueFixture f;
    f.q.schedule(SimCycle(5), EVPRI_GENERIC,
                 [&f](SimCycle now) { f.q.runDue(now); });
    EXPECT_DEATH(f.q.runDue(SimCycle(5)), "assertion failed: !in_run");
}

TEST(EventQueue, WakePendingExcludesNonWakingEvents)
{
    QueueFixture f;
    f.q.schedule(SimCycle(10), EVPRI_SNAPSHOT, f.mark(1), /*wakes=*/false);
    EXPECT_EQ(f.q.pendingCount(), 1u);
    EXPECT_EQ(f.q.wakePendingCount(), 0u);
    f.q.schedule(SimCycle(12), EVPRI_EVCHAN, f.mark(2));
    EXPECT_EQ(f.q.wakePendingCount(), 1u);
    f.q.runDue(SimCycle(10));
    EXPECT_EQ(f.q.pendingCount(), 1u);
    EXPECT_EQ(f.q.wakePendingCount(), 1u);
    f.q.runDue(SimCycle(12));
    EXPECT_EQ(f.q.pendingCount(), 0u);
    EXPECT_EQ(f.q.wakePendingCount(), 0u);
}

TEST(EventQueue, ClearDropsEverything)
{
    QueueFixture f;
    f.q.schedule(SimCycle(1), EVPRI_GENERIC, f.mark(1));
    f.q.schedule(SimCycle(2), EVPRI_GENERIC, f.mark(2));
    f.q.clear();
    EXPECT_TRUE(f.q.empty());
    EXPECT_EQ(f.q.wakePendingCount(), 0u);
    EXPECT_EQ(f.q.runDue(SimCycle(100)), 0);
    EXPECT_TRUE(f.fired.empty());
}

TEST(EventQueue, StatsCountersTrackActivity)
{
    QueueFixture f;
    f.q.schedule(SimCycle(1), EVPRI_GENERIC, f.mark(1));
    f.q.schedule(SimCycle(2), EVPRI_GENERIC, f.mark(2));
    f.q.schedule(SimCycle(9), EVPRI_GENERIC, f.mark(3));
    f.q.runDue(SimCycle(5));
    EXPECT_EQ(f.stats.get("eventq/scheduled"), 3ULL);
    EXPECT_EQ(f.stats.get("eventq/fired"), 2ULL);
    EXPECT_EQ(f.stats.get("eventq/peak_pending"), 3ULL);
}

// ---------------------------------------------------------------------
// EventChannels owns its pending timer sends.
// ---------------------------------------------------------------------

/**
 * The scheduled sends in `ch`'s checkpoint image, as flat (when, port)
 * word pairs in schedule order. The image is the raised-port mask, the
 * send count, then the sends.
 */
std::vector<U64>
scheduledSends(EventChannels &ch)
{
    const std::vector<U64> words = Archive::save(ch);
    return std::vector<U64>(words.begin() + 2, words.end());
}

/**
 * Scheduled sends are kept in schedule order, a fired send drops out
 * of the list, and loading an image replaces the list, which rearm()
 * then arms in that order. Equal-due sends share EVPRI_EVCHAN, so the
 * queue's schedule-order tie-break
 * (SameCyclePriorityTiesBreakByScheduleOrder) fires them in their
 * original order, each dropping its own record.
 */
TEST(EventChannels, PendingSendsAreOwnedAndRestoredInOrder)
{
    StatsTree stats;
    EventQueue q(stats);
    Context ctx;
    EventChannels ch({&ctx}, q, stats);
    using Words = std::vector<U64>;

    ch.sendAt(SimCycle(20), 5);
    ch.sendAt(SimCycle(10), 3);
    ch.sendAt(SimCycle(20), 1);
    const Words captured = Archive::save(ch);
    EXPECT_EQ(scheduledSends(ch), (Words{20, 5, 10, 3, 20, 1}));

    q.runDue(SimCycle(10));
    EXPECT_EQ(ch.consumePending(0), U64(1) << 3);
    EXPECT_EQ(scheduledSends(ch), (Words{20, 5, 20, 1}));

    // Roll back to the capture: the fired send is pending again and
    // the queue holds exactly one arm per send.
    q.clear();
    Archive::load(ch, captured);
    ch.rearm();
    EXPECT_EQ(Archive::save(ch), captured);
    EXPECT_EQ(q.pendingCount(), 3u);

    // The restored sends fire again at their captured cycles.
    q.runDue(SimCycle(10));
    EXPECT_EQ(ch.consumePending(0), U64(1) << 3);
    EXPECT_EQ(scheduledSends(ch), (Words{20, 5, 20, 1}));
    q.runDue(SimCycle(20));
    EXPECT_EQ(ch.consumePending(0), (U64(1) << 5) | (U64(1) << 1));
    EXPECT_TRUE(scheduledSends(ch).empty());
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------
// Whole-machine tests on the booted paravirtual kernel.
// ---------------------------------------------------------------------

/** Workload touching every event source: timer sleeps, a disk DMA
 *  read, and a network round-trip through the latency model. */
void
busyGuest(Assembler &a, GuestLib &lib)
{
    a.mov(R::rdi, 3);
    lib.syscall(GSYS_sleep);
    a.mov(R::rdi, 0);
    a.mov(R::rsi, 2);
    a.movImm64(R::rdx, USER_DATA_VA);
    lib.syscall(GSYS_disk_read);
    a.sub(R::rsp, 16);
    a.movStoreImm32(Mem::at(R::rsp), 99);
    a.mov(R::rdi, 0);
    a.mov(R::rsi, R::rsp);
    a.mov(R::rdx, 8);
    lib.syscall(GSYS_net_send);
    a.mov(R::rdi, 2);
    lib.syscall(GSYS_sleep);
    a.mov(R::rdi, 21);
    lib.syscall(GSYS_exit);
}

std::unique_ptr<BootedMachine>
busyMachine(const char *core)
{
    auto bm = std::make_unique<BootedMachine>(bootConfig(core), busyGuest);
    std::vector<U8> image(64 * DISK_SECTOR_BYTES, 0x5A);
    bm->machine.disk().setImage(std::move(image));
    return bm;
}

/**
 * The determinism proof for the event kernel: two identically
 * configured machines running the same guest must produce bit-identical
 * results — same final cycle, same stats tree (every path, every
 * value), and the same snapshot series (Figure 2/3 inputs). Any
 * nondeterministic tie-break in same-cycle event ordering shows up
 * here as a diverging counter or snapshot.
 */
TEST(EventMachine, TwoIdenticalRunsAreBitIdentical)
{
    for (const char *core : {"seq", "ooo"}) {
        auto a = busyMachine(core);
        auto b = busyMachine(core);
        Machine::RunResult ra = a->machine.run(500'000'000);
        Machine::RunResult rb = b->machine.run(500'000'000);
        ASSERT_TRUE(ra.shutdown);
        ASSERT_TRUE(rb.shutdown);
        EXPECT_EQ(ra.cycles, rb.cycles) << core;
        EXPECT_EQ(a->machine.timeKeeper().cycle(),
                  b->machine.timeKeeper().cycle())
            << core;

        StatsTree &sa = a->machine.stats();
        StatsTree &sb = b->machine.stats();
        ASSERT_EQ(sa.paths(), sb.paths()) << core;
        for (const std::string &p : sa.paths())
            ASSERT_EQ(sa.get(p), sb.get(p)) << core << ": " << p;

        ASSERT_EQ(sa.snapshotCount(), sb.snapshotCount()) << core;
        for (size_t i = 0; i < sa.snapshotCount(); i++) {
            ASSERT_EQ(sa.snapshot(i).cycle, sb.snapshot(i).cycle)
                << core << " snapshot " << i;
            ASSERT_EQ(sa.snapshot(i).values, sb.snapshot(i).values)
                << core << " snapshot " << i;
        }
    }
}

/** The old per-cycle poll is gone: while every VCPU sleeps, the loop
 *  must leap to the queue head rather than spin. With a 10k-cycle
 *  timer period, a sleep-dominated run fires far fewer events than it
 *  covers cycles. */
TEST(EventMachine, IdleFastForwardJumpsToQueueHead)
{
    BootedMachine bm(bootConfig("seq"), [](Assembler &a, GuestLib &lib) {
        a.mov(R::rdi, 20);
        lib.syscall(GSYS_sleep);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(1'000'000'000);
    ASSERT_TRUE(r.shutdown);
    U64 idle = bm.machine.stats().get("external/cycles_in_mode/idle");
    U64 fired = bm.machine.stats().get("eventq/fired");
    EXPECT_GT(idle, 150'000ULL);       // ~20 ticks * 10k cycles
    EXPECT_LT(fired, 2'000ULL);        // events, not cycles
    // Every scheduled event was either fired or is still pending.
    EXPECT_EQ(bm.machine.stats().get("eventq/scheduled"),
              fired + bm.machine.eventQueue().pendingCount());
}

/** A machine whose guest halts with nothing scheduled must report a
 *  stall instead of burning the full cycle budget. */
TEST(EventMachine, StalledDomainDetectedWithoutPolling)
{
    SimConfig cfg = bootConfig("seq");
    Machine m(cfg);
    m.finalizeCores();
    // No kernel, no runnable VCPU, nothing in the queue but the
    // (non-waking) snapshot cadence.
    m.vcpu(0).running = false;
    Machine::RunResult r = m.run(100'000'000);
    EXPECT_TRUE(r.stalled);
    EXPECT_LT(r.cycles, 100'000'000ULL);
}

/**
 * Checkpoint mid-I/O: capture while a disk DMA is in flight and timer
 * deliveries are scheduled, finish, then restore and finish again —
 * the replay must land every completion at the same cycle and reach
 * the same architectural end state.
 */
TEST(EventMachine, CheckpointRoundTripWithInFlightEvents)
{
    auto bm = busyMachine("seq");
    Machine &m = bm->machine;

    // Step in small quanta until the disk request is genuinely
    // in flight (issued, not yet completed).
    for (int i = 0; m.disk().pendingTransfers().empty(); i++) {
        ASSERT_LT(i, 1'000'000) << "disk request never became pending";
        Machine::RunResult r = m.run(500);
        ASSERT_FALSE(r.shutdown) << "disk request never became pending";
    }
    const SimCycle at_capture = m.timeKeeper().cycle();
    const size_t disk_pending = m.disk().pendingTransfers().size();
    EXPECT_FALSE(scheduledSends(m.eventChannels()).empty());  // next tick
    MachineCheckpoint ckpt = captureCheckpoint(m);

    Machine::RunResult r1 = m.run(500'000'000);
    ASSERT_TRUE(r1.shutdown);
    const SimCycle end_cycle1 = m.timeKeeper().cycle();
    U64 hash1 = hashGuestMemory(m.physMem());
    Context end1 = m.vcpu(0);

    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.timeKeeper().cycle(), at_capture);
    EXPECT_EQ(m.disk().pendingTransfers().size(), disk_pending);
    Machine::RunResult r2 = m.run(500'000'000);
    ASSERT_TRUE(r2.shutdown);
    EXPECT_EQ(r2.exit_code, r1.exit_code);
    EXPECT_EQ(m.timeKeeper().cycle(), end_cycle1);
    EXPECT_EQ(hashGuestMemory(m.physMem()), hash1);
    ContextDiff diff = compareContexts(end1, m.vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
}

/** Serialized pointer chase: each load address depends on the
 *  previous load, 64 loads at an 8 KB stride, then exit(7). */
void
pointerChaseGuest(Assembler &a, GuestLib &lib)
{
    a.movImm64(R::rbx, USER_DATA_VA);
    a.mov(R::rcx, 64);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rdx, R::rcx);
    a.shl(R::rdx, 13);           // 8 KB stride
    a.add(R::rdx, R::rbx);
    a.add(R::rdx, R::rax);       // serialize on previous load
    a.mov(R::rsi, Mem::at(R::rdx));
    a.add(R::rax, R::rsi);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.mov(R::rdi, 7);
    lib.syscall(GSYS_exit);
}

/**
 * Checkpoint mid-stall on the OOO core: the guest runs a serialized
 * pointer-chase (each load address depends on the previous load), so
 * the pipeline spends most of its time slept inside skip-ahead with
 * the dependent uops parked in the issue queue on partial ready
 * bitmasks and the miss outstanding in an MSHR. We step in small
 * quanta until a quantum shows skipped cycles but zero commits after
 * data misses began — i.e. we paused inside such a stall — capture
 * there, and require the restored machine to replay to a cycle-exact,
 * bit-identical end state. (Capture quiesces the pipeline via
 * resetMicroarch on both the continuing and the restored machine, so
 * the in-flight microarchitectural state is rebuilt identically from
 * the architectural state on both paths.)
 */
TEST(EventMachine, CheckpointRoundTripMidStallOnOooCore)
{
    auto bm = std::make_unique<BootedMachine>(bootConfig("ooo"),
                                              pointerChaseGuest);
    Machine &m = bm->machine;

    U64 prev_skip = 0, prev_insns = 0;
    bool mid_stall = false;
    for (int i = 0; i < 1'000'000 && !mid_stall; i++) {
        Machine::RunResult r = m.run(100);
        ASSERT_FALSE(r.shutdown)
            << "guest finished before a stall was caught";
        U64 skip = m.stats().get("core0/ooocore/skipped_cycles");
        U64 insns = m.stats().get("core0/commit/insns");
        U64 misses = m.stats().get("core0/dcache/misses");
        mid_stall = skip > prev_skip && insns == prev_insns
                    && insns > 0 && misses > 0;
        prev_skip = skip;
        prev_insns = insns;
    }
    ASSERT_TRUE(mid_stall) << "no quiesced memory-stall quantum found";

    const SimCycle at_capture = m.timeKeeper().cycle();
    MachineCheckpoint ckpt = captureCheckpoint(m);
    Machine::RunResult r1 = m.run(500'000'000);
    ASSERT_TRUE(r1.shutdown);
    const SimCycle end_cycle1 = m.timeKeeper().cycle();
    U64 hash1 = hashGuestMemory(m.physMem());
    Context end1 = m.vcpu(0);

    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.timeKeeper().cycle(), at_capture);
    Machine::RunResult r2 = m.run(500'000'000);
    ASSERT_TRUE(r2.shutdown);
    EXPECT_EQ(r2.exit_code, r1.exit_code);
    EXPECT_EQ(m.timeKeeper().cycle(), end_cycle1);
    EXPECT_EQ(hashGuestMemory(m.physMem()), hash1);
    ContextDiff diff = compareContexts(end1, m.vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
}

/**
 * The mid-stall checkpoint again, with the banked-DRAM backend
 * selected purely from the memory config JSON: the per-bank busy
 * stamps and open-row state are part of the timing model now, and the
 * capture/restore protocol (resetTimebase on both sides) must keep
 * resumes cycle-exact with that state in play too.
 */
TEST(EventMachine, CheckpointRoundTripMidStallOnBankedDram)
{
    SimConfig cfg = bootConfig("ooo");
    cfg.applyMemoryJson(R"({"version": "1", "backend": "banked"})");
    auto bm = std::make_unique<BootedMachine>(cfg, pointerChaseGuest);
    Machine &m = bm->machine;

    U64 prev_insns = 0;
    bool mid_stall = false;
    for (int i = 0; i < 1'000'000 && !mid_stall; i++) {
        Machine::RunResult r = m.run(100);
        ASSERT_FALSE(r.shutdown)
            << "guest finished before a stall was caught";
        U64 insns = m.stats().get("core0/commit/insns");
        U64 misses = m.stats().get("core0/dcache/misses");
        mid_stall = insns == prev_insns && insns > 0 && misses > 0;
        prev_insns = insns;
    }
    ASSERT_TRUE(mid_stall) << "no memory-stall quantum found";

    const SimCycle at_capture = m.timeKeeper().cycle();
    MachineCheckpoint ckpt = captureCheckpoint(m);
    Machine::RunResult r1 = m.run(500'000'000);
    ASSERT_TRUE(r1.shutdown);
    const SimCycle end_cycle1 = m.timeKeeper().cycle();
    U64 hash1 = hashGuestMemory(m.physMem());
    Context end1 = m.vcpu(0);
    // The banked model was genuinely in the timing path.
    EXPECT_GT(m.stats().get("core0/membackend/reads"), 0ULL);

    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.timeKeeper().cycle(), at_capture);
    Machine::RunResult r2 = m.run(500'000'000);
    ASSERT_TRUE(r2.shutdown);
    EXPECT_EQ(r2.exit_code, r1.exit_code);
    EXPECT_EQ(m.timeKeeper().cycle(), end_cycle1);
    EXPECT_EQ(hashGuestMemory(m.physMem()), hash1);
    ContextDiff diff = compareContexts(end1, m.vcpu(0));
    EXPECT_TRUE(diff.equal) << diff.description;
}

/** In-flight network packets (and already-delivered unread bytes) ride
 *  through a checkpoint and still arrive at their scheduled cycles. */
TEST(EventMachine, CheckpointCarriesInFlightNetworkPackets)
{
    SimConfig cfg = bootConfig("seq");
    Machine m(cfg);
    // Park the VCPU on a hlt spin (delivery wakes it) so the run loop
    // has something harmless to execute.
    AddressSpace &as = m.addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(0x400000), PAGE_SIZE, Pte::RW | Pte::US);
    Context &ctx = m.vcpu(0);
    ctx.cr3 = cr3;
    ctx.kernel_mode = true;
    ctx.rip = GuestVirt(0x400000);
    static const U8 spin[] = {0xF4, 0xEB, 0xFD};  // hlt; jmp hlt
    GuestAccess acc =
        guestTranslate(as, ctx, GuestVirt(0x400000), MemAccess::Write);
    m.physMem().writeBytes(acc.paddr, spin, sizeof(spin));
    ctx.running = false;
    m.finalizeCores();

    U8 payload[64];
    for (size_t i = 0; i < sizeof(payload); i++)
        payload[i] = (U8)i;
    m.net().send(0, payload, sizeof(payload));
    ASSERT_FALSE(m.net().inFlight().empty());
    const SimCycle arrival = m.net().inFlight().front().ready;

    ASSERT_EQ(m.net().inFlight().size(), 1u);
    MachineCheckpoint ckpt = captureCheckpoint(m);

    // Let the original deliver, then roll back: the packet must be in
    // flight again and deliver at the same cycle as before.
    for (int i = 0; i < 1000 && m.net().available(0) == 0; i++)
        m.run(1000);
    EXPECT_EQ(m.net().available(0), sizeof(payload));

    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.net().available(0), 0u);
    ASSERT_EQ(m.net().inFlight().size(), 1u);
    EXPECT_EQ(m.net().inFlight().front().ready, arrival);
    for (int i = 0; i < 1000 && m.net().available(0) == 0; i++)
        m.run(1000);
    EXPECT_EQ(m.net().available(0), sizeof(payload));
    U8 out[64] = {};
    ASSERT_EQ(m.net().recv(0, out, sizeof(out)), sizeof(payload));
    for (size_t i = 0; i < sizeof(payload); i++)
        ASSERT_EQ(out[i], payload[i]);
}

// ---------------------------------------------------------------------
// Native-mode round robin and the rip-trigger sentinel fix.
// ---------------------------------------------------------------------

/** Bare two-VCPU machine: each VCPU runs its own counting loop and
 *  halts. */
std::unique_ptr<Machine>
twoVcpuMachine()
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.vcpu_count = 2;
    cfg.guest_mem_bytes = 16 << 20;
    auto m = std::make_unique<Machine>(cfg);
    AddressSpace &as = m->addressSpace();
    Pfn cr3 = as.createRoot();
    as.mapRange(cr3, GuestVirt(0x400000), 64 * PAGE_SIZE, Pte::RW | Pte::US);
    as.mapRange(cr3, GuestVirt(0x600000), 64 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);
    as.mapRange(cr3, GuestVirt(0x7F0000), 16 * PAGE_SIZE,
                Pte::RW | Pte::US | Pte::NX);

    Assembler a(0x400000);
    // Loop 500 times incrementing rax, store rax to a per-vcpu slot
    // (rdi holds the slot address), halt.
    a.mov(R::rax, 0);
    a.mov(R::rcx, 500);
    Label top = a.label();
    a.inc(R::rax);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.mov(Mem::at(R::rdi), R::rax);
    a.hlt();
    std::vector<U8> image = a.finalize();

    Context &c0 = m->vcpu(0);
    c0.cr3 = cr3;
    c0.kernel_mode = true;
    for (size_t i = 0; i < image.size(); i++) {
        GuestAccess acc =
            guestTranslate(as, c0, GuestVirt(0x400000 + i),
                           MemAccess::Write);
        m->physMem().writeBytes(acc.paddr, &image[i], 1);
    }
    for (int v = 0; v < 2; v++) {
        Context &ctx = m->vcpu(v);
        ctx.cr3 = cr3;
        ctx.kernel_mode = true;
        ctx.rip = GuestVirt(0x400000);
        ctx.regs[REG_rsp] = 0x7FF000 - (U64)v * 0x1000;
        ctx.regs[REG_rdi] = 0x600000 + (U64)v * 8;
        ctx.running = true;
    }
    m->finalizeCores();
    return m;
}

U64
readPhys(Machine &m, U64 va)
{
    GuestAccess acc =
        guestTranslate(m.addressSpace(), m.vcpu(0), GuestVirt(va),
                       MemAccess::Read);
    U64 v = 0;
    m.physMem().readBytes(acc.paddr, &v, 8);
    return v;
}

/** The old native slice only ever stepped VCPU 0; with two runnable
 *  VCPUs both must finish their loops in native mode. */
TEST(EventMachine, NativeSliceRoundRobinsAcrossVcpus)
{
    auto m = twoVcpuMachine();
    m->setMode(Machine::Mode::Native);
    m->run(50'000'000);
    EXPECT_EQ(readPhys(*m, 0x600000), 500ULL);
    EXPECT_EQ(readPhys(*m, 0x600008), 500ULL);
    EXPECT_GT(m->stats().get("native/vcpu0/commit/insns"), 500ULL);
    EXPECT_GT(m->stats().get("native/vcpu1/commit/insns"), 500ULL);
}

/** RIP 0 used to be the unarmed sentinel; the trigger is now an
 *  explicit optional so address 0 is a legal trigger point. */
TEST(EventMachine, RipTriggerZeroIsArmable)
{
    SimConfig cfg = bootConfig("seq");
    Machine m(cfg);
    EXPECT_FALSE(m.ripTriggerArmed());
    m.setRipTrigger(0);
    EXPECT_TRUE(m.ripTriggerArmed());
    m.clearRipTrigger();
    EXPECT_FALSE(m.ripTriggerArmed());
}

}  // namespace
}  // namespace ptl
