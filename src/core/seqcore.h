/**
 * @file
 * The uop-level functional engine and the in-order sequential core.
 *
 * PTLsim is an integrated simulator: one definition of uop semantics
 * feeds every execution engine. FunctionalEngine executes whole x86
 * instructions (uop sequence per instruction, atomically committed,
 * with precise fault delivery and event injection between
 * instructions). It backs:
 *
 *  - the sequential in-order core model ("seq") used for rapid testing
 *    and microcode debugging (Section 2.2);
 *  - native-mode execution (Section 2.3) — full speed, no timing
 *    structures — in src/native;
 *  - the reference half of co-simulation / commit checking;
 *  - the "k8-native" reference-machine trial of Table 1, where it runs
 *    with profiling attached to real-K8-fidelity TLB/cache/predictor
 *    structure models.
 */

#ifndef PTLSIM_CORE_SEQCORE_H_
#define PTLSIM_CORE_SEQCORE_H_

#include <memory>

#include "branch/predictor.h"
#include "core/coreapi.h"
#include "mem/hierarchy.h"

namespace ptl {

class FunctionalEngine
{
  public:
    FunctionalEngine(Context &ctx, AddressSpace &aspace,
                     BasicBlockCache &bbcache, SystemInterface &sys,
                     StatsTree &stats, const std::string &prefix);

    /**
     * Attach structure models: every load/store then exercises the
     * hierarchy's TLBs/caches and every branch trains the predictor,
     * without changing functional behaviour.
     */
    void attachProfiling(MemoryHierarchy *hierarchy,
                         BranchPredictor *predictor);

    struct StepResult
    {
        int insns = 0;              ///< x86 instructions completed
        int uops = 0;
        CycleDelta mem_stall;       ///< profiling-estimated stall cycles
        bool idle = false;          ///< VCPU is blocked (hlt)
        bool blocked_now = false;   ///< this step executed hlt
        bool event_delivered = false;
        GuestFault fault_delivered = GuestFault::None;
    };

    /**
     * Deliver a pending event if possible, otherwise execute exactly
     * one x86 instruction (committing atomically). `now` is used only
     * for profiling-mode cache timing.
     */
    StepResult stepInsn(SimCycle now = SimCycle(0));

    /** Forget the cached block position (after external RIP changes). */
    void reposition();

    /**
     * The next uop stepInsn() would execute, or nullptr if the decode
     * position cannot be (re)acquired without faulting. Re-acquires
     * the cached block exactly as stepInsn() would; used by the OoO
     * core's lockstep checker to find the committing instruction.
     */
    const Uop *peekUop();

    Context &context() { return *ctx; }

  private:
    struct PendingWrite
    {
        GuestVirt va;
        U64 value;
        U8 size;
    };
    struct FlagUpdate
    {
        U16 flags;
        U8 setmask;
    };

    /**
     * Look up the block at ctx->rip if the cached position ran off its
     * block or the bbcache changed since. Returns true when it looked
     * one up; cur_bb is then null if the fetch faulted (with `ff` set).
     */
    bool reacquireBlock(GuestFault &ff);

    U64 readReg(int reg) const;
    U16 readFlags(int reg) const;
    /** Commit the pending register values and attached flags. */
    void commitPending();
    /** Write this instruction's first `n` stores in program order;
     *  true if any landed on decoded code (snoopCodeWrite). */
    bool commitStores(int n);

    Context *ctx;
    AddressSpace *aspace;
    BasicBlockCache *bbcache;
    SystemInterface *sys;
    MemoryHierarchy *hier = nullptr;
    BranchPredictor *bp = nullptr;

    // Per-register attached flags (the flags each producer left).
    U16 regflags[NUM_UOP_REGS] = {};

    // Per-instruction speculative state (committed at EOM). Flags are
    // tracked separately: only setflags-producing uops attach flags to
    // their destination (so value-only writers like mov/setcc never
    // clobber a producer's flags that a later consumer still names).
    // Bit r of a mask marks register r's pending slot as live, so an
    // instruction's cost follows the registers it writes.
    static_assert(NUM_UOP_REGS <= 64, "pending masks are one U64");
    U64 pending_valid = 0;
    U64 pending_hasflags = 0;
    U64 pending_value[NUM_UOP_REGS] = {};
    U16 pending_flags[NUM_UOP_REGS] = {};
    // This instruction's stores (applied at commit) and flag updates.
    // Members, not locals: one x86 instruction never expands past a
    // block's uop budget, and a local PendingWrite array (GuestVirt has
    // a default member initialiser) would be zeroed per instruction.
    PendingWrite stores[MAX_BB_UOPS] = {};
    FlagUpdate flag_updates[MAX_BB_UOPS] = {};

    // Cached decode position.
    const BasicBlock *cur_bb = nullptr;
    size_t uop_idx = 0;
    U64 bb_generation = 0;

    Counter &st_insns;
    Counter &st_uops;
    Counter &st_k8ops;
    Counter &st_modeled_cycles;
    Counter &st_branches;
    Counter &st_cond_branches;
    Counter &st_mispredicts;
    Counter &st_indirect_branches;
    Counter &st_indirect_mispredicts;
    Counter &st_loads;
    Counter &st_stores;
    Counter &st_events;
    Counter &st_faults;
    Counter &st_assists;
};

/** The in-order sequential core model ("seq"). */
class SeqCore : public CoreModel
{
  public:
    explicit SeqCore(const CoreBuildParams &params);

    void cycle(SimCycle now) override;
    bool allIdle() const override;
    void flushPipeline() override;
    void flushTlbs() override;
    void resetTimebase(SimCycle now) override;
    void resetMicroarch(SimCycle now) override;
    std::string name() const override { return "seq"; }

    FunctionalEngine &engine(int thread) { return *engines[thread]; }

  private:
    std::vector<Context *> contexts;
    std::vector<std::unique_ptr<FunctionalEngine>> engines;
    MemoryHierarchy *hierarchy;        ///< owned by the machine builder
    std::unique_ptr<BranchPredictor> predictor;
    std::vector<SimCycle> stall_until;
    size_t next_thread = 0;
};

}  // namespace ptl

#endif  // PTLSIM_CORE_SEQCORE_H_
