/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses and the
 * bare-metal kernel ablations (bench_ablation).
 */

#ifndef PTLSIM_BENCH_BENCH_UTIL_H_
#define PTLSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sys/baremachine.h"
#include "workload/k8preset.h"
#include "xasm/assembler.h"

namespace ptl {

/** Benchmark scale, overridable from the command line / environment:
 *  --files N --mean BYTES --seed S, or PTLSIM_BENCH_FILES etc. */
struct BenchScale
{
    FileSetParams params;

    static BenchScale
    fromArgs(int argc, char **argv)
    {
        BenchScale s;
        s.params.file_count = 150;
        s.params.mean_file_bytes = 8192;
        s.params.max_file_bytes = 40960;
        s.params.seed = 42;
        if (const char *env = std::getenv("PTLSIM_BENCH_FILES"))
            s.params.file_count = std::atoi(env);
        for (int i = 1; i + 1 < argc + 1 && i < argc; i++) {
            auto is = [&](const char *flag) {
                return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
            };
            if (is("--files"))
                s.params.file_count = std::atoi(argv[++i]);
            else if (is("--mean"))
                s.params.mean_file_bytes =
                    (U64)std::atoll(argv[++i]);
            else if (is("--seed"))
                s.params.seed = (U64)std::atoll(argv[++i]);
        }
        return s;
    }
};

inline void
printRunBanner(const char *what, const BenchScale &scale)
{
    std::printf("== %s ==\n", what);
    std::printf("file set: %d files, mean %llu bytes, seed %llu "
                "(scaled from the paper's 6186 files / 48 MB)\n",
                scale.params.file_count,
                (unsigned long long)scale.params.mean_file_bytes,
                (unsigned long long)scale.params.seed);
}

// ---- bare-metal kernels ----

constexpr U64 CODE_BASE = 0x400000;
constexpr U64 DATA_BASE = 0x600000;
constexpr U64 STACK_TOP = 0x800000;

/** The bare-metal benchmarks' machine: K8, 32 MB of guest memory, MFN
 *  seed 7. */
inline SimConfig
bareBenchConfig()
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.guest_mem_bytes = 32 << 20;
    cfg.seed = 7;
    return cfg;
}

/** Map 256 KB of code, 1 MB of data and 256 KB of stack, start VCPU i's
 *  stack 32 KB below VCPU i-1's, and load `kernel` on every VCPU. */
inline void
loadBareKernel(BareMachine &m, void (*kernel)(Assembler &))
{
    m.map(CODE_BASE, 64 * PAGE_SIZE, Pte::RW | Pte::US);
    m.map(DATA_BASE, 256 * PAGE_SIZE, Pte::RW | Pte::US | Pte::NX);
    m.map(STACK_TOP - 64 * PAGE_SIZE, 64 * PAGE_SIZE,
          Pte::RW | Pte::US | Pte::NX);
    for (int i = 0; i < m.vcpuCount(); i++)
        m.vcpu(i).regs[REG_rsp] = STACK_TOP - 64 - (U64)i * 0x8000;
    Assembler a(CODE_BASE);
    kernel(a);
    m.load(a);
}

}  // namespace ptl

#endif  // PTLSIM_BENCH_BENCH_UTIL_H_
