/**
 * @file
 * The out-of-order superscalar core model (Section 2.2).
 *
 * "The default core model is a modern superscalar out of order design,
 * based on a combination of features from the Intel Pentium 4, AMD K8
 * and Intel Core 2." The structures modeled here:
 *
 *  - fetch of pre-decoded uops from the basic block cache, with
 *    I-TLB/I-cache timing charged per block and branch prediction at
 *    fetch (direction predictor, BTB, return address stack);
 *  - a frontend pipeline of configurable depth feeding rename;
 *  - register renaming onto physical register files (configurable
 *    count/size); each physical register carries its value *and* the
 *    condition flags it produced, with the ZAPS/CF/OF groups renamed
 *    independently (PTLsim's split-flags scheme);
 *  - clustered issue queues (e.g. the K8's three 8-entry integer lanes
 *    plus a 36-entry FP queue two cycles away) with oldest-first
 *    select, per-cluster issue width, and inter-cluster bypass delay;
 *  - a load/store queue with store-to-load forwarding by physical
 *    address, replay on partial overlaps / unresolved older stores
 *    (load hoisting configurable; the K8 preset disables it),
 *    L1D bank-conflict replays, MSHR back-pressure, and hardware
 *    page-walk latency injected on DTLB misses;
 *  - an interlock controller for LOCK-prefixed instructions shared by
 *    all threads and cores (Section 4.4);
 *  - atomic commit of x86 instructions (SOM/EOM groups), precise
 *    exceptions, microcode assists executed at the head of the ROB,
 *    and event (virtual interrupt) delivery at instruction boundaries;
 *  - misprediction recovery via per-branch RAT checkpoints;
 *  - an SMT mode: up to 16 hardware threads with per-thread fetch
 *    queues, ROBs, LDQ/STQ and rename state, sharing issue queues,
 *    functional units and the cache hierarchy, with round-robin or
 *    ICOUNT fetch policies and a deadlock-rescue flush (Section 2.2);
 *  - an optional commit-time checker that runs every committed x86
 *    instruction through the functional reference engine and compares
 *    architectural state (the TFSim-style self-validation the paper
 *    describes integrating).
 */

#ifndef PTLSIM_CORE_OOO_OOOCORE_H_
#define PTLSIM_CORE_OOO_OOOCORE_H_

#include <algorithm>
#include <array>
#include <memory>

#include "branch/predictor.h"
#include "core/coreapi.h"
#include "core/ooo/ring.h"
#include "core/seqcore.h"
#include "mem/hierarchy.h"

namespace ptl {

class InvariantChecker;
struct VerifyTestHook;

/**
 * pending_smc: the code frames the commit group in flight wrote. The
 * core's stores and its lockstep reference report here; notifyCodeWrite
 * records a frame once, for delivery after the group commits. The
 * reference runs no assists, so the assist hooks panic.
 */
class PendingCodeWrites final : public SystemInterface
{
  public:
    explicit PendingCodeWrites(SystemInterface &machine) : sys(&machine) {}

    bool isCodeMfn(Pfn mfn) const override { return sys->isCodeMfn(mfn); }
    void
    notifyCodeWrite(Pfn mfn) override
    {
        if (std::find(mfns.begin(), mfns.end(), mfn) == mfns.end())
            mfns.push_back(mfn);
    }
    U64 hypercall(Context &, U64, U64, U64, U64) override { panic("assist"); }
    U64 readTsc(const Context &) override { panic("assist"); }
    void vcpuBlock(Context &) override { panic("assist"); }
    U64 ptlcall(Context &, U64, U64, U64) override { panic("assist"); }

    /** Report each recorded frame to the machine, then forget them;
     *  false if there were none. */
    bool deliver();

  private:
    SystemInterface *sys;
    std::vector<Pfn> mfns;
};

class OooCore final : public CoreModel
{
  public:
    OooCore(const CoreBuildParams &params, bool smt);
    ~OooCore() override;

    void cycle(SimCycle now) override;
    bool allIdle() const override;
    void flushPipeline() override;
    void flushTlbs() override;
    void resetTimebase(SimCycle now) override;
    void resetMicroarch(SimCycle now) override;
    std::string name() const override { return smt ? "smt" : "ooo"; }
    std::string debugState() const override;

    /** idle_until while asleep and no wake condition holds, else
     *  `now`. cycle()'s fast path is this query plus a one-cycle
     *  skipQuiesced(). */
    SimCycle quiescedUntil(SimCycle now) const override;
    /** Count [from, to) as skipped cycles and move the SMT rotors as
     *  that many fast-path cycles would. */
    void skipQuiesced(SimCycle from, SimCycle to) override;

    /** Accept (or detach, with nullptr) the per-cycle auditor. */
    void
    attachAuditor(std::unique_ptr<CoreAuditor> auditor) override
    {
        verifier = std::move(auditor);
        // The auditor cadence bounds how far cycle() may skip ahead;
        // drop any sleep armed under the old cadence.
        idle_until = SimCycle(0);
    }

    /**
     * Run the attached auditor once (ROB/LSQ/PRF/issue queues, plus
     * the coherence directory when multi-core). Returns the violation
     * count, or 0 when no auditor is attached (the `verify` config
     * flag is off). Panics on the first violation.
     */
    int verifyNow(SimCycle now);

  private:
    friend class InvariantChecker;   // src/verify: reads all pipeline state
    friend struct VerifyTestHook;    // src/verify: test-only corruption
    // ---- physical registers ----
    // Packed by access pattern (hot value/stamp first, bookkeeping
    // last): 24 bytes instead of the naive 40, and the issue/commit
    // paths touch only the first 16.
    struct PhysReg
    {
        U64 value = 0;
        SimCycle ready_cycle;  ///< cycle the value becomes readable
        U16 flags = 0;
        bool ready = false;
        bool in_free_list = true;
        bool is_fp = false;
        S8 cluster = 0;        ///< producing cluster (bypass delay)
        S16 refcount = 0;      ///< references from architectural maps
    };

    static constexpr int NUM_FLAG_GROUPS = 3;  // ZAPS, CF, OF
    static constexpr int RAT_SIZE = NUM_UOP_REGS + NUM_FLAG_GROUPS;
    static constexpr int FLAG_RAT_BASE = NUM_UOP_REGS;

    struct RatCheckpoint
    {
        S16 map[RAT_SIZE];
        int ras_top;
    };

    /** Waiting is only the default of a slot rename has not filled;
     *  a live entry is InQueue until it issues, then Done. */
    enum class RobState : U8 { Waiting, InQueue, Done };

    // Fields are ordered by alignment (U64s, then pred, then ints,
    // then bytes) so the entry packs into 144 bytes; the ROB is the
    // hottest array in the simulator and every byte of padding here
    // costs cache footprint in rename/issue/commit. A BrCC or Jmp
    // keeps its RAT checkpoint in checkpoints[] at its own slot.
    struct RobEntry
    {
        Uop uop;
        U64 seq = 0;            ///< global program-order sequence
        GuestVirt fault_addr;
        U64 predicted_next = 0;
        U64 actual_next = 0;    ///< a branch's resolved next RIP
        BranchPrediction pred;  ///< branch resolution state
        int phys = -1;          ///< destination physical register
        int src[4] = {-1, -1, -1, -1};  ///< ra, rb, rc, rf phys
        int cluster = 0;
        int lsq = -1;           ///< LDQ/STQ slot (by kind)
        RobState state = RobState::Waiting;
        GuestFault fault = GuestFault::None;
        bool hoist_violation = false;  ///< memory replay bookkeeping
        U16 outflags = 0;
    };
    static_assert(sizeof(RobEntry) <= 144, "RobEntry grew past 144 bytes");

    /** One LDQ/STQ slot. Each queue is a Ring in program order, like
     *  the ROB: rename allocates at the tail, commit frees the head,
     *  a squash rewinds the tail. */
    struct LsqEntry
    {
        int rob = -1;
        GuestVirt va;
        GuestPhys paddr;
        U8 size = 0;
        bool addr_known = false;
        bool locked = false;
        bool lock_acquired = false;  ///< this entry owns the interlock
        /** A parked load: its issue-queue slot holds wake_cycle
         *  CYCLE_NEVER until no older store of its thread has an
         *  unknown address. */
        bool parked = false;
        U64 data = 0;           ///< store data
        U64 seq = 0;            ///< global program-order sequence
    };

    /**
     * One issue-queue slot. Select no longer re-derives operand
     * readiness from the PRF every cycle: each slot caches its source
     * physical-register tags at dispatch and keeps a 4-bit ready mask,
     * with bits set either at dispatch (source already executed) or by
     * tag broadcast when the producing PhysReg completes
     * (broadcastReady). wake_cycle accumulates the latest effective
     * (bypass-adjusted) ready cycle over the known-ready sources, and
     * a load or store replay raises it to the replay stamp (no
     * broadcast can touch a full mask afterwards), so a fully-masked
     * entry is issuable exactly when wake_cycle <= now. With the
     * uop's scheduling class mirrored in `cls`, select reads only
     * these 32 bytes, never the RobEntry.
     */
    struct IqEntry
    {
        U64 seq = 0;
        SimCycle wake_cycle;   ///< max effective ready cycle seen so far
        S16 src[4] = {-1, -1, -1, -1};  ///< cached source phys tags
        S16 rob = -1;
        S16 thread = 0;
        U8 ready_mask = 0;     ///< bit s set = src[s] value broadcast seen
        UopClass cls = UopClass::IntAlu;  ///< mirrors uop.schedCls()
    };
    static constexpr U8 IQ_ALL_READY = 0xF;
    /** Slots per issue queue: a queue's slots must fit in one U64
     *  wakeup mask (SimConfig::validate enforces it). */
    static constexpr int MAX_IQ_SLOTS = 64;

    struct IssueQueue
    {
        std::vector<IqEntry> slots;
        U64 live = 0;   ///< bit i set = slots[i] holds a queued uop
        int cluster = 0;
        int used = 0;   ///< popcount(live), kept off the rename path
        /**
         * Lower bound on the earliest cycle any entry here can issue;
         * select skips the whole queue while next_wake > now. Lowered
         * by dispatch inserts and ready broadcasts, recomputed from
         * scratch after every full select scan. Entry removal
         * (issue/squash/flush) may leave it conservatively early,
         * which only costs one extra scan — never a missed issue.
         */
        SimCycle next_wake;
    };

    /** All per-hardware-thread state (Section 2.2's SMT split). */
    struct Thread
    {
        Context *ctx = nullptr;
        // Fetch state.
        GuestVirt fetch_rip;
        const BasicBlock *fetch_bb = nullptr;
        size_t fetch_idx = 0;
        U64 bb_generation = 0;
        SimCycle fetch_stall_until;
        bool fetch_faulted = false;
        // Fetch queue: uops waiting for rename (with ready-at cycle).
        struct FetchedUop
        {
            Uop uop;
            SimCycle ready_at;
            BranchPrediction pred;
            U64 predicted_next = 0;
            int ras_top = 0;    ///< RAS state right after this uop fetched
            GuestFault fetch_fault = GuestFault::None;
        };
        /** cfg.fetch_queue_size entries. Fetch checks for room
         *  before every push, so it never overflows. */
        Ring<FetchedUop> fetch_queue;
        // Rename state.
        S16 spec_rat[RAT_SIZE];
        S16 arch_rat[RAT_SIZE];
        Ring<RobEntry> rob;
        Ring<LsqEntry> ldq;
        Ring<LsqEntry> stq;
        // Checkpoints, indexed by ROB slot.
        std::vector<RatCheckpoint> checkpoints;
        U64 next_seq = 0;
        SimCycle last_commit_cycle;
        /**
         * Why the last commitThread attempt this cycle could not make
         * progress, as a wake-up stamp: the blocking writeback's
         * ready_cycle, now+1 while polling another owner's interlock,
         * or CYCLE_NEVER when unblocking requires some other pipeline
         * event (which is covered by the other sleep sources).
         * Recomputed on every commit attempt, so it is always fresh
         * when sleepCore() reads it at the end of the same cycle.
         */
        SimCycle commit_wake = CYCLE_NEVER;
        /** Parked loads of this thread: a store's resolve looks for
         *  loads to wake only while this is non-zero. */
        int parked_loads = 0;
        bool slept_running = false;  ///< ctx->running snapshot at sleep
        // Commit checker.
        std::unique_ptr<Context> shadow_ctx;
        std::unique_ptr<FunctionalEngine> checker;
    };

    // ---- pipeline stages (called in reverse order each cycle) ----
    void stageCommit(SimCycle now);
    void stageIssue(SimCycle now);
    void stageRename(SimCycle now);
    void stageFetch(SimCycle now);

    // ---- helpers ----
    int allocPhys(bool fp);
    void freePhys(int phys);
    void addRefPhys(int phys);
    void dropRefPhys(int phys);
    /** Cycle `reg`'s value is usable from `consumer_cluster`, with the
     *  inter-cluster bypass delay applied. The single readiness
     *  predicate shared by dispatch seeding, wakeup broadcast and the
     *  commit-time writeback check. */
    SimCycle effectiveReadyCycle(const PhysReg &reg,
                                 int consumer_cluster) const
    {
        SimCycle eff = reg.ready_cycle;
        bool prod_fp = ((int)reg.cluster == cfg.int_iq_count);
        bool cons_fp = (consumer_cluster == cfg.int_iq_count);
        if (prod_fp != cons_fp)
            eff += cycles((U64)cfg.fp_cluster_delay);
        return eff;
    }
    /**
     * Tag broadcast: `phys` just completed (its PhysReg ready bit and
     * ready_cycle are final). Walks the set bits of the register's
     * wakeup mask in every queue, sets the ready bit of each source
     * that names the tag, lowers queue wake stamps, and clears the
     * masks. Every effect is order-independent (bits are OR'd,
     * wake_cycle takes the max, next_wake the min).
     */
    void broadcastReady(int phys);
    /**
     * Wakeup subscriptions: bit `slot` of waitMask(phys, q) is set at
     * dispatch when that slot of queue q has a source still waiting
     * on `phys`. Bits can go stale (squash/flush frees the slot, or
     * the slot is reused), so the broadcast visits only slots in the
     * queue's live mask and re-checks their source tags and ready
     * bits. A squashed producer
     * never broadcasts; its masks are cleared when the register is
     * reallocated.
     */
    U64 &waitMask(int phys, int queue)
    {
        return wait_masks[(size_t)phys * queues.size() + (size_t)queue];
    }
    U64 waitMask(int phys, int queue) const
    {
        return wait_masks[(size_t)phys * queues.size() + (size_t)queue];
    }
    /** Compute this core's next-interesting cycle after a cycle with
     *  no pipeline activity, snapshot per-thread running state, and
     *  arm idle_until. */
    void sleepCore(SimCycle now);
    void flushThread(Thread &t);
    void squashYounger(Thread &t, int rob_idx, SimCycle now);
    /** The live slot of `iq` that holds ROB entry `rob_idx` of `t`,
     *  or -1. */
    int iqSlotOf(const IssueQueue &iq, const Thread &t, int rob_idx) const;
    void redirectFetch(Thread &t, GuestVirt rip, SimCycle now,
                       CycleDelta penalty);
    /** Issue the uop in `slot`. Returns true when it left the queue,
     *  false when a load or store replays (its slot's wake_cycle then
     *  holds the replay stamp). */
    bool issueOne(SimCycle now, IssueQueue &iq, int slot);
    /** Execute a load or store. Returns LSQ_DONE when it completed (or
     *  faulted), else the replay stamp: the earliest cycle the access
     *  may be attempted again, always later than `now`. */
    static constexpr SimCycle LSQ_DONE = SimCycle(0);
    /** Why a load or store replays: lsq/replays/<name> per cause,
     *  lsq/replays for their sum. */
    enum class ReplayCause : U8
    {
        Interlock,         ///< another thread holds the address's lock
        LockOrder,         ///< an older locked access of this thread
                           ///< has not acquired, or still holds, it
        UnknownStoreAddr,  ///< an older store's address is unresolved
        PartialOverlap,    ///< an older store overlaps but cannot forward
        MshrFull,
        BankConflict,
        Count
    };
    /** Count one replay of `cause`; returns the retry stamp `at`. */
    SimCycle
    replay(ReplayCause cause, SimCycle at)
    {
        st_load_replays++;
        (*st_replay_causes[(size_t)cause])++;
        return at;
    }
    /**
     * Park load `l` of `t`: it waits without polling until no older
     * store of `t` has an unknown address. Counts one
     * UnknownStoreAddr replay and returns CYCLE_NEVER, the stamp
     * issueOne leaves in its slot.
     */
    SimCycle parkLoad(Thread &t, LsqEntry &l);
    /** A store of `t` resolved its address: wake, at now+1, the
     *  parked loads that no older store of `t` leaves unknown. */
    void wakeParkedLoads(Thread &t, SimCycle now);
    SimCycle issueLoad(SimCycle now, Thread &t, RobEntry &e);
    SimCycle issueStore(SimCycle now, Thread &t, RobEntry &e);
    void resolveBranch(SimCycle now, Thread &t, int rob_idx, RobEntry &e);
    bool commitThread(SimCycle now, Thread &t, int &budget);
    /** Squash `t`; refetch from its committed RIP after `delay`. */
    void restartThread(Thread &t, SimCycle now, CycleDelta delay);
    void commitUopState(SimCycle now, Thread &t, RobEntry &e);
    void runChecker(Thread &t, const RobEntry &eom_entry);
    void lockstepStepReference(Thread &t, SimCycle now, GuestVirt insn_rip,
                               const Uop &first_uop);
    void lockstepCheckStore(Thread &t, SimCycle now, GuestVirt insn_rip,
                            const LsqEntry &s, int size);
    void lockstepCompare(Thread &t, SimCycle now, GuestVirt insn_rip);
    int pickFetchThread(SimCycle now);
    int ownerId(const Thread &t) const;

    // ---- members ----
    SimConfig cfg;
    bool smt;
    AddressSpace *aspace;
    BasicBlockCache *bbcache;
    SystemInterface *sys;
    StatsTree *stats;
    InterlockController *interlocks;
    CoherenceController *coherence;
    int core_id = 0;

    /** Per-cycle auditor attached by the machine (verify=1). */
    std::unique_ptr<CoreAuditor> verifier;
    /** Lockstep reference compare is only sound when this core's
     *  commits are the sole writers of guest memory (no SMT siblings,
     *  no coherence peers); otherwise the per-uop replay checker
     *  still runs but full-context lockstep is skipped. */
    bool lockstep_enabled = false;

    MemoryHierarchy *hierarchy;        ///< owned by the machine builder
    std::unique_ptr<BranchPredictor> predictor;
    std::vector<Thread> threads;
    std::vector<PhysReg> prf;
    std::vector<U64> wait_masks;   ///< [phys][queue], see waitMask()
    std::vector<int> free_int, free_fp;
    std::vector<IssueQueue> queues;   ///< int queues then FP queue
    int fp_queue_index = 0;
    // SMT arbitration rotors, kept in [0, threads.size()] (fetch) and
    // [0, threads.size()) (rename, commit): they advance every cycle,
    // so a free-running int would overflow after 2^31 cycles. Rename
    // and commit wrap by subtracting the thread count, which keeps
    // them congruent to a free-running rotor without a division per
    // evaluated cycle.
    int next_fetch_thread = 0;
    int next_rename_thread = 0;
    int next_commit_thread = 0;
    /**
     * Skip-ahead state: while now < idle_until, cycle() takes a fast
     * path that only checks the externally-visible wake conditions
     * (running-flag flips, deliverable events; quiescedUntil()) — no
     * pipeline state can change until then, by construction of
     * sleepCore(). Cleared by everything that mutates core state from
     * outside a cycle (flushPipeline, resetTimebase, attachAuditor).
     */
    SimCycle idle_until;
    /** Did any stage make forward progress this cycle? Only a cycle
     *  with zero activity may arm idle_until. Transient, reset at the
     *  top of every evaluated cycle. */
    bool cycle_activity = false;
    PendingCodeWrites pending_smc;  ///< code MFNs hit by committed stores
    bool trace_commits = false;     ///< PTLSIM_TRACE=1 commit logging
    bool renameOne(SimCycle now, Thread &t, int tid);

    // Statistics.
    Counter &st_commit_insns;
    Counter &st_commit_uops;
    Counter &st_cycles;
    Counter &st_branches;
    Counter &st_cond_branches;
    Counter &st_mispredicts;
    Counter &st_indirect_branches;
    Counter &st_indirect_mispredicts;
    Counter &st_loads;
    Counter &st_stores;
    Counter &st_load_forwards;
    Counter &st_load_replays;
    std::array<Counter *, (size_t)ReplayCause::Count> st_replay_causes;
    Counter &st_events;
    Counter &st_faults;
    Counter &st_assists;
    Counter &st_flushes;
    Counter &st_fetch_stall;
    Counter &st_rename_stall;
    Counter &st_hoist_flushes;
    Counter &st_deadlock_rescues;
    Counter &st_checker_commits;
    Counter &st_lockstep_commits;
    Counter &st_skipped_cycles;
    Counter &st_wakeup_broadcasts;
    Counter &st_select_fast_skips;
};

}  // namespace ptl

#endif  // PTLSIM_CORE_OOO_OOOCORE_H_
