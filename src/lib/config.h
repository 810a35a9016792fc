/**
 * @file
 * Simulator configuration.
 *
 * All tunable parameters of every core model, the cache hierarchy, the
 * branch predictors and the full-system substrate live in SimConfig.
 * Named presets ("default", "k8") mirror the paper's configurations;
 * individual fields can then be overridden via "name=value" option
 * strings, echoing PTLsim's command-list style configuration.
 */

#ifndef PTLSIM_LIB_CONFIG_H_
#define PTLSIM_LIB_CONFIG_H_

#include <string>
#include <vector>

#include "lib/bitops.h"

namespace ptl {

/** Branch predictor family selector. */
enum class PredictorKind { Bimodal, Gshare, Hybrid, Taken, NotTaken };

/** Cache coherence protocol selector (paper default vs. future work). */
enum class CoherenceKind { InstantVisibility, Moesi };

/** SMT fetch priority policy. */
enum class SmtPolicy { RoundRobin, Icount };

/** Cache replacement policy selector (per level). */
enum class ReplKind { Lru, TreePlru, Random };

/** Main-memory timing model selector (src/mem/membackend.h). */
enum class MemBackendKind { Fixed, BankedDram, Hybrid };

/** One cache level's geometry and timing. */
struct CacheParams
{
    U64 size_bytes = 0;       ///< total capacity; 0 disables the level
    int ways = 1;             ///< associativity
    int line_bytes = 64;      ///< line size
    int latency = 1;          ///< hit latency in cycles
    int mshr_count = 8;       ///< outstanding-miss buffers
    int banks = 1;            ///< pseudo-dual-port banking (1 = unbanked)
    ReplKind repl = ReplKind::Lru;  ///< victim-selection policy

    int sets() const;         ///< derived set count (validates geometry)
};

/**
 * Main-memory backend parameters (the `memory` config block, whose
 * JSON form carries a "version" key that applyMemoryJson() checks, so
 * blocks written for a different layout are rejected, not misread).
 *
 * The banked-DRAM defaults are chosen so a row-buffer CONFLICT costs
 * t_rp + t_rcd + t_cas = 112 cycles — exactly the flat mem_latency of
 * the fixed backend — while an open-row hit pays only t_cas.
 */
struct MemBackendParams
{
    MemBackendKind kind = MemBackendKind::Fixed;

    // -- banked DRAM timing (also the hybrid model's bank substrate) --
    int dram_banks = 8;          ///< independent banks (power of two)
    int row_bytes = 2048;        ///< open-row (row buffer) granularity
    int t_cas = 40;              ///< row-buffer hit: column access only
    int t_rcd = 36;              ///< row activate (RAS-to-CAS)
    int t_rp = 36;               ///< row precharge on a conflict

    // -- hybrid eDRAM + PCM --
    U64 edram_size_bytes = 4 << 20;  ///< eDRAM cache capacity
    int edram_ways = 8;
    int edram_line_bytes = 64;
    int edram_latency = 24;      ///< eDRAM hit latency
    int pcm_read_latency = 160;  ///< PCM array read
    int pcm_write_latency = 480; ///< PCM cell write (asymmetric)
    int deferred_writes = 16;    ///< deferred-write queue capacity
};

/** Complete simulator configuration. */
struct SimConfig
{
    // ---- global machine ----
    U64 core_freq_hz = 2'200'000'000ULL;  ///< simulated core frequency
    int vcpu_count = 1;                   ///< VCPUs in the domain
    U64 snapshot_interval = 2'200'000;    ///< stats snapshot cadence (cycles)
    U64 timer_hz = 1000;                  ///< guest timer tick frequency
    U64 guest_mem_bytes = 64ULL << 20;    ///< domain physical memory
    U64 seed = 42;                        ///< global determinism seed
    bool shuffle_mfns = true;             ///< non-contiguous MFN assignment

    // ---- core selection ----
    std::string core = "ooo";             ///< registered core model name
    int smt_threads = 1;                  ///< hardware threads per core

    // ---- out-of-order core ----
    int fetch_width = 3;
    int frontend_width = 3;               ///< rename/dispatch per cycle
    int issue_width_per_cluster = 3;
    int commit_width = 3;
    int fetch_queue_size = 24;
    int rob_size = 72;
    int ldq_size = 44;
    int stq_size = 44;
    int int_prf_size = 128;
    int fp_prf_size = 128;
    int int_iq_count = 3;                 ///< K8-style integer lanes
    int int_iq_size = 8;
    int fp_iq_size = 36;
    int fp_cluster_delay = 2;             ///< cycles between int/fp clusters
    int frontend_stages = 7;              ///< fetch-to-dispatch depth
    int mispredict_penalty = 10;          ///< redirect bubble on mispredict
    bool load_hoisting = false;           ///< speculative load-before-store
    bool enforce_banking = true;          ///< model L1D bank conflicts
    bool skip_ahead = true;               ///< OoO core jumps quiesced cycles

    // ---- uop latencies ----
    int lat_alu = 1;
    int lat_mul = 3;
    int lat_div = 23;
    int lat_fp = 4;
    int lat_ld = 3;                       ///< L1D hit load-to-use

    // ---- memory hierarchy ----
    CacheParams l1i{64 << 10, 2, 64, 1, 8, 1};
    CacheParams l1d{64 << 10, 2, 64, 3, 8, 8};
    CacheParams l2{1 << 20, 16, 64, 10, 16, 1};
    CacheParams l3{0, 16, 64, 25, 16, 1};  ///< disabled in the K8 preset
    int mem_latency = 112;                ///< DRAM access cycles
    MemBackendParams membackend;          ///< main-memory timing model
    int dtlb_entries = 32;
    int itlb_entries = 32;
    int tlb2_entries = 0;                 ///< L2 TLB (0 = absent, as in PTLsim)
    int tlb2_ways = 4;
    bool pde_cache = false;               ///< K8 page-directory-entry cache
    bool hw_prefetch = false;             ///< K8-style next-line prefetcher
    CoherenceKind coherence = CoherenceKind::InstantVisibility;
    int interconnect_latency = 20;        ///< MOESI line-transfer cycles

    // ---- branch prediction ----
    PredictorKind predictor = PredictorKind::Hybrid;
    int gshare_entries = 16384;
    int gshare_history = 12;
    int bimodal_entries = 4096;
    int meta_entries = 4096;
    int btb_entries = 1024;
    int btb_ways = 4;
    int ras_entries = 16;

    // ---- SMT ----
    SmtPolicy smt_policy = SmtPolicy::RoundRobin;
    int smt_deadlock_timeout = 50000;     ///< cycles before rescue flush

    // ---- native mode / co-simulation ----
    U64 native_ipc_x1000 = 2200;          ///< assumed native IPC (x86) * 1000
    bool commit_checker = false;          ///< lockstep compare vs. reference

    // ---- correctness tooling (src/verify) ----
    bool verify = false;                  ///< per-cycle invariant checker

    // ---- devices / timing (Section 4.2) ----
    int net_latency_us = 50;              ///< loopback packet delivery delay
    int disk_latency_us = 200;            ///< virtual disk DMA latency

    /** Look up a preset by name ("default", "k8") and return it. */
    static SimConfig preset(const std::string &name);

    /**
     * Apply one "name=value" override (e.g. "rob_size=72",
     * "predictor=gshare"). Unknown names are fatal().
     */
    void applyOption(const std::string &option);

    /** Apply a whitespace-separated option list. */
    void applyOptions(const std::string &options);

    /**
     * Apply a versioned `memory` JSON block (the experiment-file
     * reproducibility path). Accepts a flat object of scalars and
     * one level of nesting; nested keys map to "group_key" option
     * names, e.g.
     *
     *   {"version": 1, "backend": "banked",
     *    "dram": {"banks": 8, "t_cas": 40},
     *    "l1d": {"repl": "tree-plru"}}
     *
     * A missing or mismatched "version" is fatal().
     */
    void applyMemoryJson(const std::string &json);

    /** Sanity-check derived quantities; fatal() on invalid geometry. */
    void validate() const;

    /** Physical registers the out-of-order core pins per hardware
     *  thread for architectural state (35 integer/flag + 16 FP),
     *  on top of int_prf_size + fp_prf_size. */
    static constexpr int OOO_ARCH_REGS_PER_THREAD = 51;
};

}  // namespace ptl

#endif  // PTLSIM_LIB_CONFIG_H_
