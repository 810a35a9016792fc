/**
 * Memory-backend comparison: the same streaming workload on the
 * K8-configured out-of-order core under each main-memory timing model,
 * every one selected purely from the versioned `memory` config JSON —
 * no code changes between runs:
 *
 *   - "fixed":  the flat 112-cycle latency (the pre-refactor default)
 *   - "banked": rank/bank/row-buffer DRAM (open rows reward streams)
 *   - "hybrid": an eDRAM cache fronting PCM with deferred writes
 *
 * The guest walks a 1 MB buffer twice with a 64-byte stride, and each
 * address depends on the previous load (a pointer-chase idiom), so the
 * run is latency-bound: one miss outstanding at a time, and the
 * backend's per-access schedule shows directly in the completion cycle
 * count. Sequential lines stay in the open DRAM row, so the banked
 * model's 40-cycle row hits beat the flat 112-cycle latency, while the
 * hybrid model's working set overflows its eDRAM and exposes PCM reads.
 * The banked run also prints its row-buffer hit/conflict census.
 *
 *   $ ./memory_backends
 */

#include <cstdio>

#include "sys/baremachine.h"
#include "xasm/assembler.h"

using namespace ptl;

namespace {

constexpr U64 BUF_BASE = 0x600000;
constexpr U64 BUF_BYTES = 1 << 20;

/** Run the stride workload under one memory JSON; returns cycles. */
U64
runWorkload(const char *label, const char *memory_json)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.applyMemoryJson(memory_json);
    cfg.guest_mem_bytes = 32 << 20;
    cfg.seed = 1;
    BareMachine m(cfg);
    m.map(0x400000, 16 * PAGE_SIZE, Pte::RW | Pte::US);
    m.map(BUF_BASE, BUF_BYTES + PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    m.map(0x7F0000, 16 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);

    // Two passes over the buffer, one line per iteration; the next
    // address depends on the loaded value (masked to zero, but the
    // dataflow edge is real), so misses serialize and every backend
    // pays its full per-access latency. Pass one is cold, pass two
    // mostly hits the on-chip caches.
    Assembler a(0x400000);
    a.mov(R::r8, 2);
    Label pass = a.label();
    a.movImm64(R::rbx, BUF_BASE);
    a.mov(R::rcx, BUF_BYTES / 64);
    a.mov(R::rax, 0);
    Label top = a.label();
    a.mov(R::rsi, Mem::at(R::rbx));
    a.add(R::rax, R::rsi);
    a.and_(R::rsi, 0);        // keep the chain, lose the value
    a.add(R::rbx, R::rsi);    // address of the next load waits on it
    a.add(R::rbx, 64);
    a.dec(R::rcx);
    a.jcc(COND_ne, top);
    a.dec(R::r8);
    a.jcc(COND_ne, pass);
    a.hlt();
    m.load(a);
    m.vcpu(0).regs[REG_rsp] = 0x7FF000;
    m.finalizeCores();
    U64 cycle = m.run(100'000'000);

    StatsTree &stats = m.stats();
    std::printf("%-8s %9llu cycles  (IPC %.3f, %llu line fills)\n",
                label, (unsigned long long)cycle,
                (double)stats.get("core0/commit/insns") / (double)cycle,
                (unsigned long long)stats.get("core0/mem/accesses"));
    if (stats.get("core0/membackend/row_hits")
        + stats.get("core0/membackend/row_conflicts") > 0) {
        std::printf("         row buffer: %llu hits, %llu conflicts, "
                    "%llu busy waits\n",
                    (unsigned long long)
                        stats.get("core0/membackend/row_hits"),
                    (unsigned long long)
                        stats.get("core0/membackend/row_conflicts"),
                    (unsigned long long)
                        stats.get("core0/membackend/busy_waits"));
    }
    if (stats.get("core0/membackend/pcm_reads") > 0) {
        std::printf("         eDRAM: %llu hits / %llu misses; PCM: "
                    "%llu reads, %llu writes (%llu deferred drains)\n",
                    (unsigned long long)
                        stats.get("core0/membackend/edram_hits"),
                    (unsigned long long)
                        stats.get("core0/membackend/edram_misses"),
                    (unsigned long long)
                        stats.get("core0/membackend/pcm_reads"),
                    (unsigned long long)
                        stats.get("core0/membackend/pcm_writes"),
                    (unsigned long long)
                        stats.get("core0/membackend/deferred_drained"));
    }
    return cycle;
}

}  // namespace

int
main()
{
    std::printf("1 MB stride-64 stream, two passes, K8 OoO core:\n\n");
    U64 fixed = runWorkload("fixed", R"({"version": "1",
                                         "backend": "fixed"})");
    U64 banked = runWorkload("banked", R"({"version": "1",
                                           "backend": "banked",
                                           "dram": {"banks": "8",
                                                    "row_bytes": "2048"}})");
    U64 hybrid = runWorkload("hybrid", R"({"version": "1",
                                           "backend": "hybrid",
                                           "edram": {"size": "262144"},
                                           "l1d": {"repl": "tree-plru"}})");
    std::printf("\nbanked vs fixed: %+.1f%%   hybrid vs fixed: %+.1f%%\n",
                100.0 * ((double)banked - (double)fixed) / (double)fixed,
                100.0 * ((double)hybrid - (double)fixed) / (double)fixed);
    // A sequential stream should profit from open DRAM rows.
    return banked < fixed ? 0 : 1;
}
