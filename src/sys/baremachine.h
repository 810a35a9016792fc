/**
 * @file
 * A bare-metal machine: the core models without the full-system domain.
 *
 * Tests, benchmarks and examples run hand-assembled kernels straight on
 * the cores, with no guest OS, hypervisor, devices or event queue.
 * BareMachine builds that machine from a SimConfig alone, exactly as
 * Machine builds its own parts: guest memory from guest_mem_bytes, seed
 * and shuffle_mfns; vcpu_count VCPUs; and cores through assembleCores
 * (sys/coreset.h), the routine Machine::finalizeCores uses too.
 *
 * Every VCPU runs in kernel mode under one page-table root (root()),
 * which starts empty: the caller maps its own regions and sets its own
 * stack registers. BareMachine is the cores' SystemInterface:
 *
 *  - hlt stops the VCPU (nothing ever wakes it);
 *  - hypercalls and ptlcalls are recorded and answered with
 *    setCallResult()'s value (0 by default);
 *  - the TSC advances by 100 per read;
 *  - writes to code pages (stores, writeGuest, load) invalidate the
 *    bbcache.
 */

#ifndef PTLSIM_SYS_BAREMACHINE_H_
#define PTLSIM_SYS_BAREMACHINE_H_

#include <memory>
#include <vector>

#include "core/coreapi.h"
#include "sys/coreset.h"

namespace ptl {

class Assembler;

class BareMachine : public SystemInterface
{
  public:
    explicit BareMachine(const SimConfig &config);
    // Cores hold pointers to this machine and its members.
    BareMachine(const BareMachine &) = delete;
    BareMachine &operator=(const BareMachine &) = delete;

    // ---- subsystem access (as on Machine) ----
    PhysMem &physMem() { return physmem; }
    AddressSpace &addressSpace() { return aspace; }
    StatsTree &stats() { return stats_tree; }
    BasicBlockCache &bbCache() { return bbcache; }
    Context &vcpu(int i) { return *contexts[i]; }
    int vcpuCount() const { return (int)contexts.size(); }

    // ---- guest memory ----
    /** The page-table root every VCPU runs under. */
    Pfn root() const { return cr3; }

    /** Map fresh frames at guest-virtual [va, va + bytes) under root(). */
    void map(U64 va, U64 bytes, U64 flags);

    /** Copy into / read from guest-virtual memory; a fault is fatal. */
    void writeGuest(U64 va, const void *data, size_t n);
    U64 readGuest(U64 va, unsigned bytes);

    /** Write an assembled image at its base VA (as writeGuest) and
     *  point every VCPU's RIP there, flushing any built core. */
    void load(Assembler &assembler);

    // ---- cores ----
    /** Instantiate the config.core models (after the image and initial
     *  VCPU state are in place). */
    void finalizeCores();

    CoreModel &core(int i) { return *hw.cores[i]; }
    int coreCount() const { return (int)hw.cores.size(); }
    /** The coherence controller, or nullptr on a single non-MOESI core. */
    CoherenceController *coherence() { return hw.coherence.get(); }

    /** True when every core has no running thread and nothing in flight. */
    bool allIdle() const;

    /** Tick every core, round robin, until all are idle or `max_cycles`
     *  pass; a stretch on which every core is quiesced
     *  (CoreModel::quiescedUntil) passes in one step, as in
     *  Machine::run. Time carries over between calls; returns cycles
     *  ticked. */
    U64 run(U64 max_cycles);

    // ---- SystemInterface ----
    struct Hypercall { U64 nr, a1, a2, a3; };

    U64
    hypercall(Context &, U64 nr, U64 a1, U64 a2, U64 a3) override
    {
        hypercalls.push_back({nr, a1, a2, a3});
        return call_result;
    }

    U64
    ptlcall(Context &, U64 op, U64, U64) override
    {
        ptlcalls.push_back(op);
        return call_result;
    }

    U64 readTsc(const Context &) override { return tsc += 100; }
    void vcpuBlock(Context &ctx) override { ctx.running = false; }
    void notifyCodeWrite(Pfn mfn) override { bbcache.invalidateMfn(mfn); }
    bool isCodeMfn(Pfn mfn) const override { return bbcache.isCodeMfn(mfn); }

    const std::vector<Hypercall> &hypercallLog() const { return hypercalls; }
    const std::vector<U64> &ptlcallLog() const { return ptlcalls; }
    void setCallResult(U64 result) { call_result = result; }

  private:
    SimConfig cfg;
    StatsTree stats_tree;
    PhysMem physmem;
    AddressSpace aspace;
    BasicBlockCache bbcache;
    InterlockController interlock_ctrl;
    std::vector<std::unique_ptr<Context>> contexts;
    CoreSet hw;
    Pfn cr3;
    SimCycle now;

    std::vector<Hypercall> hypercalls;
    std::vector<U64> ptlcalls;
    U64 call_result = 0;
    U64 tsc = 0;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_BAREMACHINE_H_
