/**
 * Additional coverage: the interlock controller unit behaviour, basic
 * block cache keying (privilege context, page-crossing instructions),
 * uop disassembly, command-list error paths, and the core-model
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/coreapi.h"
#include "guest_harness.h"
#include "native/triggers.h"

namespace ptl {
namespace {

TEST(Interlock, AcquireReleaseSemantics)
{
    StatsTree stats;
    InterlockController ic(stats);
    EXPECT_TRUE(ic.acquire(GuestPhys(0x1000), 1));
    EXPECT_TRUE(ic.acquire(GuestPhys(0x1000), 1));    // re-acquire by owner
    EXPECT_FALSE(ic.acquire(GuestPhys(0x1004), 2));   // same 8-byte region
    EXPECT_TRUE(ic.heldByOther(GuestPhys(0x1001), 2));
    EXPECT_FALSE(ic.heldByOther(GuestPhys(0x1001), 1));
    EXPECT_TRUE(ic.held(GuestPhys(0x1000)));
    EXPECT_TRUE(ic.acquire(GuestPhys(0x1008), 2));    // neighbouring region is free
    ic.release(GuestPhys(0x1000), 2);                 // wrong owner: no effect
    EXPECT_TRUE(ic.held(GuestPhys(0x1000)));
    ic.release(GuestPhys(0x1000), 1);
    EXPECT_FALSE(ic.held(GuestPhys(0x1000)));
    EXPECT_TRUE(ic.acquire(GuestPhys(0x1000), 2));
    ic.releaseAll(2);
    EXPECT_EQ(ic.heldCount(), 0u);
    EXPECT_GT(stats.get("interlock/contention"), 0ULL);
}

TEST(Interlock, ReleaseAllOnlyDropsOwner)
{
    StatsTree stats;
    InterlockController ic(stats);
    EXPECT_TRUE(ic.acquire(GuestPhys(0x100), 1));
    EXPECT_TRUE(ic.acquire(GuestPhys(0x200), 2));
    ic.releaseAll(1);
    EXPECT_FALSE(ic.held(GuestPhys(0x100)));
    EXPECT_TRUE(ic.held(GuestPhys(0x200)));
}

TEST(UopDisasm, ToStringSmoke)
{
    Uop u;
    u.op = UopOp::Add;
    u.size = 8;
    u.rd = REG_rax;
    u.ra = REG_rax;
    u.rb = REG_rbx;
    u.setflags = SETFLAG_ALL;
    u.som = u.eom = true;
    std::string s = u.toString();
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("rax"), std::string::npos);
    EXPECT_NE(s.find("zaps"), std::string::npos);

    Uop ld;
    ld.op = UopOp::Ld;
    ld.size = 4;
    ld.rd = REG_rcx;
    ld.ra = REG_rsi;
    ld.imm = 16;
    std::string s2 = ld.toString();
    EXPECT_NE(s2.find("ld"), std::string::npos);
    EXPECT_NE(s2.find("[rsi"), std::string::npos);
}

TEST(BbCache, KeyedByPrivilegeContext)
{
    // The same bytes decoded in kernel vs user mode must be distinct
    // cache entries (Section 2.1's contextual keying).
    GuestRunner g;
    Assembler a(CODE_BASE);
    a.mov(R::rax, 7);
    a.hlt();
    g.load(a);
    GuestFault f;
    ContextCodeSource kcode(g.aspace, g.ctx);
    const BasicBlock *kernel_bb = g.bbCache().get(kcode, &f);
    ASSERT_NE(kernel_bb, nullptr);
    EXPECT_TRUE(kernel_bb->kernel);
    Context uctx = g.ctx;
    uctx.kernel_mode = false;
    ContextCodeSource ucode(g.aspace, uctx);
    const BasicBlock *user_bb = g.bbCache().get(ucode, &f);
    ASSERT_NE(user_bb, nullptr);
    EXPECT_NE(kernel_bb, user_bb);
    EXPECT_FALSE(user_bb->kernel);
    EXPECT_EQ(g.bbCache().size(), 2u);
}

TEST(BbCache, PageCrossingInstructionTracksBothFrames)
{
    GuestRunner g;
    // Place a 10-byte movabs so it straddles a page boundary.
    U64 start = CODE_BASE + PAGE_SIZE - 4;
    Assembler a(start);
    a.movImm64(R::rax, 0x1122334455667788ULL);  // 10 bytes: crosses
    a.hlt();
    std::vector<U8> image = a.finalize();
    g.writeGuest(start, image.data(), image.size());
    g.ctx.rip = GuestVirt(start);
    GuestFault f;
    ContextCodeSource code(g.aspace, g.ctx);
    const BasicBlock *bb = g.bbCache().get(code, &f);
    ASSERT_NE(bb, nullptr);
    EXPECT_NE(bb->mfn_lo, bb->mfn_hi);  // spans two machine frames
    // Executing it works.
    g.execute();
    EXPECT_EQ(g.reg(R::rax), 0x1122334455667788ULL);
    // Writing to the *second* page invalidates the block too.
    U64 before = g.stats().get("bbcache/smc_invalidations");
    g.notifyCodeWrite(bb->mfn_hi);
    EXPECT_GT(g.stats().get("bbcache/smc_invalidations"), before);
}

TEST(CommandList, MalformedInputsAreFatal)
{
    EXPECT_EXIT(parseCommandList("-stopinsns"),
                ::testing::ExitedWithCode(1), "argument");
    EXPECT_EXIT(parseCommandList("-frobnicate"),
                ::testing::ExitedWithCode(1), "unknown directive");
}

TEST(GuestMemory, CrossPageWriteIsAtomicOnFault)
{
    // A store spanning a mapped->unmapped boundary must fault without
    // writing the first fragment.
    GuestRunner g;
    U64 last_page = DATA_BASE + 255 * PAGE_SIZE;
    U64 va = last_page + PAGE_SIZE - 4;   // next page is unmapped
    U64 before = 0;
    guestRead(g.aspace, g.ctx, GuestVirt(va), 4, before);
    GuestAccess acc =
        guestWrite(g.aspace, g.ctx, GuestVirt(va), 8, 0xAABBCCDDEEFF0011ULL);
    EXPECT_NE(acc.fault, GuestFault::None);
    U64 after = 0;
    guestRead(g.aspace, g.ctx, GuestVirt(va), 4, after);
    EXPECT_EQ(before, after) << "partial write leaked through";
}

TEST(GuestMemory, BareMachineAccessesOutsideTheMappingAreFatal)
{
    GuestRunner g;
    const U64 unmapped = DATA_BASE + 256 * PAGE_SIZE;
    EXPECT_EXIT(g.readGuest(unmapped, 8), ::testing::ExitedWithCode(1),
                "guest read of 8 bytes at 0x700000 faults");
    U64 v = 0;
    EXPECT_EXIT(g.writeGuest(unmapped - 4, &v, 8),
                ::testing::ExitedWithCode(1),
                "guest write of 8 bytes at 0x6ffffc faults");
}

TEST(Config, ValidationCatchesBadGeometry)
{
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.dtlb_entries = 33;  // not a power of two
            c.validate();
        },
        ::testing::ExitedWithCode(1), "power");
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.smt_threads = 17;   // paper's SMT limit is 16
            c.validate();
        },
        ::testing::ExitedWithCode(1), "smt_threads");
}

TEST(Config, ValidationRejectsNonPositiveLatencies)
{
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.lat_alu = 0;  // same-cycle wakeup would break select
            c.validate();
        },
        ::testing::ExitedWithCode(1), "lat_alu 0");
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.lat_ld = -1;
            c.validate();
        },
        ::testing::ExitedWithCode(1), "lat_ld -1");
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.fp_cluster_delay = -2;
            c.validate();
        },
        ::testing::ExitedWithCode(1), "fp_cluster_delay -2");
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.fp_iq_size = 65;  // a queue's slots fit one 64-bit mask
            c.validate();
        },
        ::testing::ExitedWithCode(1), "fp_iq_size 65");
}

TEST(Config, ValidationRejectsUnrunnableCoreSizes)
{
    // Each of these ran to the cycle limit without committing, or
    // (int_iq_count 0) sent integer uops to the FP queue.
    for (const char *opt :
         {"fetch_width=0", "frontend_width=0", "issue_width_per_cluster=0",
          "commit_width=0", "fetch_queue_size=0", "int_iq_count=0"}) {
        std::string name(opt, std::strchr(opt, '='));
        EXPECT_EXIT(
            {
                SimConfig c = SimConfig::preset("k8");
                c.applyOption(opt);
                c.validate();
            },
            ::testing::ExitedWithCode(1), name + " 0 must be at least 1");
    }
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.frontend_stages = -1;
            c.validate();
        },
        ::testing::ExitedWithCode(1), "frontend_stages -1");
    EXPECT_EXIT(
        {
            SimConfig c = SimConfig::preset("k8");
            c.mispredict_penalty = -3;
            c.validate();
        },
        ::testing::ExitedWithCode(1), "mispredict_penalty -3");
}

TEST(Config, ValidationRejectsSizesOverflowingCoreTags)
{
    // The out-of-order core tags physical registers and ROB slots with
    // S16. This run used to pass validation and then panic in the
    // commit checker ("value mismatch") once tags wrapped.
    EXPECT_DEATH(
        {
            SimConfig cfg = testConfig(SimConfig::preset("k8"));
            cfg.core = "ooo";
            cfg.commit_checker = true;
            cfg.applyOption("int_prf_size=40000");
            BareMachine m(cfg);
            Assembler a(CODE_BASE);
            a.mov(R::rax, 64);
            a.hlt();
            runOnCores(m, a, 100'000);
        },
        "int_prf_size 40000 \\+ fp_prf_size 128 .* exceeds 32768");

    // The pool bound counts 51 architectural pins per SMT thread.
    SimConfig c = SimConfig::preset("k8");
    c.smt_threads = 4;
    c.int_prf_size = 32768 - 4 * 51 - c.fp_prf_size;
    c.validate();  // exactly at the bound
    c.int_prf_size++;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "x 4 threads exceeds 32768");

    SimConfig r = SimConfig::preset("k8");
    r.rob_size = 32767;
    r.int_prf_size = 16384;
    r.validate();
    r.rob_size = 32768;
    EXPECT_EXIT(r.validate(), ::testing::ExitedWithCode(1),
                "rob_size 32768 exceeds 32767");
}

TEST(Assist, CpuidIsDeterministic)
{
    GuestRunner g1, g2;
    for (GuestRunner *g : {&g1, &g2}) {
        Assembler a(CODE_BASE);
        a.mov(R::rax, 1);
        a.cpuid();
        a.hlt();
        g->load(a);
        g->execute();
    }
    EXPECT_EQ(g1.reg(R::rax), g2.reg(R::rax));
    EXPECT_EQ(g1.reg(R::rdx), g2.reg(R::rdx));
}

bool
hasCoreModel(const std::string &name)
{
    std::vector<std::string> names = coreModelNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(CoreRegistry, ListsBuiltinModels)
{
    for (const char *name : {"seq", "ooo", "smt"})
        EXPECT_TRUE(hasCoreModel(name)) << name;
}

TEST(CoreRegistry, RegisteredModelIsCreatedByName)
{
    static int built = 0;
    static const CoreBuildParams *seen = nullptr;
    registerCoreModel("registry-test", [](const CoreBuildParams &p) {
        built++;
        seen = &p;
        return std::unique_ptr<CoreModel>();
    });
    EXPECT_TRUE(hasCoreModel("registry-test"));
    CoreBuildParams params;
    EXPECT_EQ(createCoreModel("registry-test", params), nullptr);
    EXPECT_EQ(built, 1);
    EXPECT_EQ(seen, &params);
}

TEST(CoreRegistry, UnknownModelIsFatal)
{
    CoreBuildParams params;
    EXPECT_DEATH(createCoreModel("no-such-core", params),
                 "unknown core model 'no-such-core'");
}

}  // namespace
}  // namespace ptl
