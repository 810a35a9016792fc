/**
 * @file
 * The top-level simulated machine (the "domain" plus PTLsim itself).
 *
 * Owns every subsystem: guest physical memory, page tables, the basic
 * block cache, VCPU contexts, event channels, devices, the hypervisor
 * model, per-core models, the central EventQueue and the master cycle
 * loop. Implements:
 *
 *  - round-robin core advancement (Section 2.2), with the hot loop
 *    reduced to "fire events due now, tick cores until the queue
 *    head": no per-cycle device/replayer/flag polling survives;
 *  - native <-> simulation mode switching driven by ptlcalls and
 *    trigger points (Sections 2.3/4.1), with native mode running the
 *    fast functional engine at a configurable native IPC and
 *    round-robinning across running VCPUs;
 *  - cycle-in-mode accounting (user/kernel/idle) for Figure 2;
 *  - periodic statistics snapshots as self-rescheduling EventQueue
 *    events (every snapshot_interval cycles) feeding the Figure 2/3
 *    time-lapse plots;
 *  - idle fast-forwarding: when every VCPU is blocked, time jumps
 *    straight to the EventQueue head (which already includes the
 *    snapshot cadence), accumulating idle cycles.
 */

#ifndef PTLSIM_SYS_MACHINE_H_
#define PTLSIM_SYS_MACHINE_H_

#include <memory>
#include <optional>

#include "core/coreapi.h"
#include "core/seqcore.h"
#include "sys/coreset.h"
#include "sys/eventq.h"
#include "sys/hypervisor.h"
#include "sys/tracereplay.h"

namespace ptl {

class Machine
{
  public:
    explicit Machine(const SimConfig &config);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // ---- subsystem access ----
    const SimConfig &config() const { return cfg; }
    PhysMem &physMem() { return *physmem; }
    AddressSpace &addressSpace() { return *aspace; }
    StatsTree &stats() { return stats_tree; }
    BasicBlockCache &bbCache() { return *bbcache; }
    TimeKeeper &timeKeeper() { return time; }
    EventQueue &eventQueue() { return eventq; }
    EventChannels &eventChannels() { return *events; }
    Console &console() { return *console_dev; }
    VirtualDisk &disk() { return *disk_dev; }
    VirtualNet &net() { return *net_dev; }
    Hypervisor &hypervisor() { return *hv; }
    InterlockController &interlocks() { return *interlock_ctrl; }
    Context &vcpu(int i) { return *contexts[i]; }
    int vcpuCount() const { return (int)contexts.size(); }

    /** Guest timer tick period in core cycles (freq / timer_hz) —
     *  the value the domain builder plants in kernel data. */
    U64 timerPeriodCycles() const { return time.frequency() / cfg.timer_hz; }

    /** Native-mode functional engine for VCPU i (profiling hooks for
     *  the reference-machine trials attach here). */
    FunctionalEngine &nativeEngine(int i) { return *native_engines[i]; }

    /**
     * Instantiate core models (config.core) once the guest image and
     * initial VCPU state are in place, via assembleCores
     * (sys/coreset.h): smt_threads VCPUs per core.
     */
    void finalizeCores();

    int coreCount() const { return (int)hw.cores.size(); }

    enum class Mode { Simulation, Native };
    Mode mode() const { return run_mode; }
    void setMode(Mode mode);

    struct RunResult
    {
        U64 cycles = 0;          ///< cycles simulated by this call
        bool shutdown = false;
        bool stalled = false;    ///< all VCPUs idle with nothing pending
        U64 exit_code = 0;
    };

    /** Run until shutdown or `max_cycles` elapse. */
    RunResult run(U64 max_cycles);

    /** Attach a trace replayer that injects recorded device events
     *  (scheduled on the EventQueue at each record's cycle stamp). */
    void attachReplayer(TraceReplayer *r);

    /** Record all device completions into `trace`. */
    void recordDevices(DeviceTrace *trace);

    /**
     * Arm a native-mode trigger point (Section 2.3): when native
     * execution reaches `rip`, the machine switches to simulation
     * mode. Any RIP is armable, including 0; cleared once it fires.
     */
    void setRipTrigger(U64 rip) { rip_trigger = rip; }
    void clearRipTrigger() { rip_trigger.reset(); }
    bool ripTriggerArmed() const { return rip_trigger.has_value(); }

    /** Total x86 instructions committed across all engines. */
    U64 totalCommittedInsns() const;

    /** Squash all in-flight core state (checkpoint restore, external
     *  architectural-state edits). */
    void flushCores();

    /** Cycle stamp of the most recent periodic stats snapshot. */
    SimCycle lastSnapshotCycle() const { return last_snapshot; }

    /**
     * Checkpoint restore, after the image is loaded: drop every
     * scheduled event and control request, then re-arm the snapshot
     * from `last_snapshot_cycle`, an attached replayer, and each
     * owner's loaded pending work (event channels, disk, net).
     */
    void rearmAfterRestore(SimCycle last_snapshot_cycle);

    /** Register an additional hierarchy whose TLBs must flush on guest
     *  CR3 switches (profiling structures attached to native mode). */
    void registerExtraTlbFlush(MemoryHierarchy *hierarchy)
    {
        extra_tlb_flush.push_back(hierarchy);
    }

  private:
    void accountModeCycles(CycleDelta elapsed);
    bool allVcpusIdle() const;
    void runNativeSlice(SimCycle limit);
    void armSnapshot();
    void armReplayer();
    void onControlEvent(SimCycle now);

    SimConfig cfg;
    StatsTree stats_tree;
    TimeKeeper time;
    EventQueue eventq;
    std::unique_ptr<PhysMem> physmem;
    std::unique_ptr<AddressSpace> aspace;
    std::unique_ptr<BasicBlockCache> bbcache;
    std::vector<std::unique_ptr<Context>> contexts;
    std::unique_ptr<EventChannels> events;
    std::unique_ptr<Console> console_dev;
    std::unique_ptr<VirtualDisk> disk_dev;
    std::unique_ptr<VirtualNet> net_dev;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<InterlockController> interlock_ctrl;
    CoreSet hw;   ///< cores, their hierarchies, coherence (finalizeCores)
    std::vector<std::unique_ptr<FunctionalEngine>> native_engines;
    TraceReplayer *replayer = nullptr;

    Mode run_mode = Mode::Simulation;
    SimCycle last_snapshot;
    bool snapshot_armed = false;   ///< the snapshot cadence is queued
    bool control_armed = false;
    std::optional<U64> rip_trigger;   ///< armed native->sim trigger RIP
    size_t native_rr = 0;             ///< native-mode round-robin cursor
    std::vector<U64> native_insns;    ///< per-VCPU slice scratch
    std::vector<U8> native_parked;    ///< per-VCPU slice scratch
    std::vector<MemoryHierarchy *> extra_tlb_flush;

    Counter &st_cycles_user;
    Counter &st_cycles_kernel;
    Counter &st_cycles_idle;
    Counter &st_cycles_native;
    Counter &st_mode_switches;
};

}  // namespace ptl

#endif  // PTLSIM_SYS_MACHINE_H_
