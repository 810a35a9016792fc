/**
 * Full-system integration tests, parameterized over core models (the
 * sequential core and the out-of-order core with its commit checker
 * armed): the paravirtual kernel boots, runs user tasks, and exercises
 * syscalls, pipes, the scheduler, timer ticks, hlt idle accounting,
 * network latency and disk DMA.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "guest_harness.h"

namespace ptl {
namespace {

class KernelP : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KernelP, BootsAndPrintsToConsole)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label msg = a.newLabel();
        a.movLabel(R::rdi, msg);
        a.mov(R::rsi, 12);
        lib.syscall(GSYS_console);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
        a.bind(msg);
        a.dbs("hello world\n", 12);
    });
    Machine::RunResult r = bm.machine.run(50'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 0ULL);
    EXPECT_EQ(bm.machine.console().output(), "hello world\n");
}

TEST_P(KernelP, GetpidAndTime)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        lib.syscall(GSYS_getpid);
        a.mov(R::rbx, R::rax);          // pid of init = 0
        lib.syscall(GSYS_time_ns);
        a.test(R::rax, R::rax);         // time should be nonzero later
        a.mov(R::rdi, R::rbx);
        lib.syscall(GSYS_exit);         // exit code = pid (0)
    });
    Machine::RunResult r = bm.machine.run(50'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 0ULL);
}

TEST_P(KernelP, TimerTicksAdvanceJiffies)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        // Sleep 5 ticks, then exit.
        a.mov(R::rdi, 5);
        lib.syscall(GSYS_sleep);
        a.mov(R::rdi, 42);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(200'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 42ULL);
    EXPECT_GE(bm.readKdata(KD_JIFFIES), 5ULL);
    EXPECT_GE(bm.readKdata(KD_TICKS_SEEN), 5ULL);
    // Sleeping accumulates idle cycles (Figure 2's idle fraction).
    EXPECT_GT(bm.machine.stats().get("external/cycles_in_mode/idle"),
              30'000ULL);
    EXPECT_GT(bm.machine.stats().get("external/cycles_in_mode/kernel"),
              0ULL);
    EXPECT_GT(bm.machine.stats().get("external/cycles_in_mode/user"),
              0ULL);
}

TEST_P(KernelP, SpawnAndPipePingPong)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label child = a.newLabel(), start = a.newLabel();
        a.jmp(start);

        // Child (arg in rdi): read 8 bytes from pipe 0, add 1, write
        // result to pipe 1, exit.
        a.bind(child);
        a.sub(R::rsp, 16);
        a.mov(R::rdi, 0);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_read_exact);
        a.mov(R::rax, Mem::at(R::rsp));
        a.inc(R::rax);
        a.mov(Mem::at(R::rsp), R::rax);
        a.mov(R::rdi, 1);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_write_all);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);

        // Init: spawn child, send 41, read back, exit with result.
        a.bind(start);
        a.movLabel(R::rdi, child);
        a.mov(R::rsi, 0);
        lib.syscall(GSYS_spawn);
        a.sub(R::rsp, 16);
        a.movStoreImm32(Mem::at(R::rsp), 41);
        a.mov(R::rdi, 0);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_write_all);
        a.mov(R::rdi, 1);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_read_exact);
        a.mov(R::rdi, Mem::at(R::rsp));
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(200'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 42ULL);
    // Context switches reloaded CR3 at least twice.
    EXPECT_GE(bm.machine.stats().get("hypervisor/cr3_switches"), 2ULL);
}

TEST_P(KernelP, PipeBlockingLargeTransfer)
{
    // Transfer far more than the 4KB pipe capacity: both sides must
    // block and wake repeatedly.
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        constexpr U32 TOTAL = 64 * 1024;
        Label child = a.newLabel(), start = a.newLabel();
        a.jmp(start);

        // Child: write TOTAL bytes of a pattern into pipe 0.
        a.bind(child);
        a.movImm64(R::rdi, USER_DATA_VA);        // source buffer
        a.mov(R::rsi, 0xAB);
        a.mov(R::rdx, TOTAL);
        a.call(lib.fn_memset);
        a.mov(R::rdi, 0);
        a.movImm64(R::rsi, USER_DATA_VA);
        a.mov(R::rdx, TOTAL);
        a.call(lib.fn_write_all);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);

        // Init: spawn child, read TOTAL bytes, verify a sample.
        a.bind(start);
        a.movLabel(R::rdi, child);
        a.mov(R::rsi, 0);
        lib.syscall(GSYS_spawn);
        a.mov(R::rdi, 0);
        a.movImm64(R::rsi, USER_DATA_VA + TOTAL);
        a.mov(R::rdx, TOTAL);
        a.call(lib.fn_read_exact);
        a.movImm64(R::rbx, USER_DATA_VA + TOTAL + TOTAL - 1);
        a.movzx8(R::rdi, Mem::at(R::rbx));       // last byte: 0xAB
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(2'000'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 0xABULL);
}

TEST_P(KernelP, NetworkLoopbackWithLatency)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label server = a.newLabel(), start = a.newLabel();
        a.jmp(start);

        // Server: recv 8 bytes on endpoint 1, double, send to ep 0.
        a.bind(server);
        a.sub(R::rsp, 16);
        a.mov(R::rdi, 1);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_net_recv_exact);
        a.mov(R::rax, Mem::at(R::rsp));
        a.add(R::rax, R::rax);
        a.mov(Mem::at(R::rsp), R::rax);
        a.mov(R::rdi, 0);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        lib.syscall(GSYS_net_send);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);

        // Client (init): spawn server, send 21 to ep 1, await reply.
        a.bind(start);
        a.movLabel(R::rdi, server);
        a.mov(R::rsi, 0);
        lib.syscall(GSYS_spawn);
        a.sub(R::rsp, 16);
        a.movStoreImm32(Mem::at(R::rsp), 21);
        a.mov(R::rdi, 1);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        lib.syscall(GSYS_net_send);
        a.mov(R::rdi, 0);
        a.mov(R::rsi, R::rsp);
        a.mov(R::rdx, 8);
        a.call(lib.fn_net_recv_exact);
        a.mov(R::rdi, Mem::at(R::rsp));
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(500'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 42ULL);
    EXPECT_GE(bm.machine.stats().get("net/packets"), 2ULL);
    // Network latency put the domain to sleep while waiting.
    EXPECT_GT(bm.machine.stats().get("external/cycles_in_mode/idle"),
              0ULL);
}

TEST_P(KernelP, DiskReadDmaIntoGuest)
{
    SimConfig cfg = bootConfig(GetParam());
    BootedMachine bm(cfg, [](Assembler &a, GuestLib &lib) {
            // Read 4 sectors (2 KB) from sector 3 into USER_DATA.
            a.mov(R::rdi, 3);
            a.mov(R::rsi, 4);
            a.movImm64(R::rdx, USER_DATA_VA);
            lib.syscall(GSYS_disk_read);
            // Exit with the first byte of the data.
            a.movImm64(R::rbx, USER_DATA_VA);
            a.movzx8(R::rdi, Mem::at(R::rbx));
            lib.syscall(GSYS_exit);
        });
    // Build a disk image: sector 3 starts with 0x77.
    std::vector<U8> image(64 * DISK_SECTOR_BYTES, 0);
    image[3 * DISK_SECTOR_BYTES] = 0x77;
    bm.machine.disk().setImage(std::move(image));

    Machine::RunResult r = bm.machine.run(500'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 0x77ULL);
    EXPECT_EQ(bm.machine.stats().get("disk/reads"), 1ULL);
    EXPECT_EQ(bm.machine.stats().get("disk/sectors"), 4ULL);
}

/** The kernel of Exec.SelfModifyingCodeInvalidatesAndReexecutes as
 *  the init task, with the commit checker armed (bootConfig): the
 *  patched immediate must run, and on ooo the lockstep reference's
 *  own copy of the store must not flush the pipeline mid-commit. */
TEST_P(KernelP, SelfModifyingCodeReexecutes)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label again = a.newLabel(), done = a.newLabel();
        Label site = a.newLabel();
        a.mov(R::rbx, 0);             // pass counter
        a.bind(again);
        a.bind(site);
        a.mov(R::rax, 1);             // B8 01 00 00 00 (patched later)
        a.inc(R::rbx);
        a.cmp(R::rbx, 2);
        a.jcc(COND_e, done);
        a.movLabel(R::rdx, site);
        a.mov(R::rcx, 2);
        a.mov8(Mem::at(R::rdx, 1), R::rcx);  // overwrite imm byte
        a.jmp(again);
        a.bind(done);
        a.mov(R::rdi, R::rax);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(500'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 2ULL);
    EXPECT_GT(bm.machine.stats().get("bbcache/smc_invalidations"), 0ULL);
    if (std::string(GetParam()) == "ooo") {
        EXPECT_GT(bm.machine.stats().get("core0/checker/lockstep_commits"),
                  0ULL);
    }
}

/** Disk DMA over a code page that has already run: the second call
 *  must run the bytes the disk wrote. */
TEST_P(KernelP, DiskReadOverRunCodeRunsNewBytes)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label start = a.newLabel(), routine = a.newLabel();
        a.jmp(start);
        a.align(PAGE_SIZE);           // the routine has its page alone
        a.bind(routine);
        a.mov(R::rax, 1);
        a.ret();
        a.align(PAGE_SIZE);
        a.bind(start);
        a.call(routine);              // decode and run the old bytes
        a.mov(R::rdi, 0);             // sector 0 over the routine
        a.mov(R::rsi, 1);
        a.movLabel(R::rdx, routine);
        lib.syscall(GSYS_disk_read);
        a.call(routine);
        a.mov(R::rdi, R::rax);
        lib.syscall(GSYS_exit);
    });
    Assembler patch(0);
    patch.mov(R::rax, 2);
    patch.ret();
    std::vector<U8> code = patch.finalize();
    std::vector<U8> image(16 * DISK_SECTOR_BYTES, 0);
    std::copy(code.begin(), code.end(), image.begin());
    bm.machine.disk().setImage(std::move(image));

    Machine::RunResult r = bm.machine.run(500'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 2ULL);
    EXPECT_GT(bm.machine.stats().get("bbcache/smc_invalidations"), 0ULL);
}

TEST_P(KernelP, YieldBetweenCpuBoundTasks)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        Label worker = a.newLabel(), start = a.newLabel();
        a.jmp(start);

        // Worker: increment a shared counter 100 times, yielding each
        // iteration, then exit.
        a.bind(worker);
        a.mov(R::rbx, 100);
        Label wloop = a.label();
        a.movImm64(R::rax, USER_DATA_VA);
        a.lockInc(Mem::at(R::rax));
        lib.syscall(GSYS_yield);
        a.dec(R::rbx);
        a.jcc(COND_ne, wloop);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);

        // Init: spawn two workers, poll the counter until it reaches
        // 200, then exit with its value.
        a.bind(start);
        a.movLabel(R::rdi, worker);
        a.mov(R::rsi, 0);
        lib.syscall(GSYS_spawn);
        a.movLabel(R::rdi, worker);
        a.mov(R::rsi, 0);
        lib.syscall(GSYS_spawn);
        Label poll = a.label();
        lib.syscall(GSYS_yield);
        a.movImm64(R::rax, USER_DATA_VA);
        a.mov(R::rcx, Mem::at(R::rax));
        a.cmp(R::rcx, 200);
        a.jcc(COND_ne, poll);
        a.mov(R::rdi, R::rcx);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(2'000'000'000);
    EXPECT_TRUE(r.shutdown);
    EXPECT_EQ(r.exit_code, 200ULL);
}

TEST_P(KernelP, SnapshotsTakenAtInterval)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        a.mov(R::rdi, 30);
        lib.syscall(GSYS_sleep);
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(1'000'000'000);
    EXPECT_TRUE(r.shutdown);
    // ~30 ticks * 10k cycles = 300k cycles; interval is 100k.
    EXPECT_GE(bm.machine.stats().snapshotCount(), 3u);
}

TEST_P(KernelP, PtlcallMarkersFromUserMode)
{
    BootedMachine bm(bootConfig(GetParam()), [](Assembler &a, GuestLib &lib) {
        a.mov(R::rax, (U64)PTLCALL_MARKER);
        a.mov(R::rdi, 7);
        a.ptlcall();
        a.mov(R::rax, (U64)PTLCALL_MARKER);
        a.mov(R::rdi, 8);
        a.ptlcall();
        a.mov(R::rdi, 0);
        lib.syscall(GSYS_exit);
    });
    Machine::RunResult r = bm.machine.run(50'000'000);
    EXPECT_TRUE(r.shutdown);
    ASSERT_EQ(bm.machine.hypervisor().markers().size(), 2u);
    EXPECT_EQ(bm.machine.hypervisor().markers()[0].id, 7ULL);
    EXPECT_EQ(bm.machine.hypervisor().markers()[1].id, 8ULL);
}

INSTANTIATE_TEST_SUITE_P(Cores, KernelP, ::testing::Values("seq", "ooo"));

}  // namespace
}  // namespace ptl
