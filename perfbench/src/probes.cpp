#include "probes.h"

#include <algorithm>
#include <functional>

#include "branch/predictor.h"
#include "kernel/guestabi.h"
#include "mem/hierarchy.h"
#include "sys/eventq.h"
#include "tracing.h"

namespace perfbench {

using namespace ptl;

namespace {

constexpr int REPS = 7;

volatile U64 probe_sink;   // keeps probe results observable

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over REPS of `rep()`, which builds fresh state, times its
 *  own work and returns host ns per operation. */
double
medianOverReps(const std::function<double()> &rep)
{
    std::vector<double> ns;
    for (int r = 0; r < REPS; r++)
        ns.push_back(rep());
    return median(ns);
}

struct Decoded
{
    std::vector<U64> block_rips;   ///< every block start, in text order
    U64 x86_insns = 0;
    std::vector<Uop> alu_uops;     ///< uops executeUop handles
    std::vector<U64> branch_rips;  ///< conditional branch sites
};

/** The workload's user text: USER_TEXT_VA up to its last non-zero
 *  byte. */
U64
userTextEnd(Machine &machine, const Context &ctx)
{
    std::vector<U8> text(USER_TEXT_BYTES);
    GuestCopy g = guestCopyIn(machine.addressSpace(), ctx, text.data(),
                              GuestVirt(USER_TEXT_VA), text.size(),
                              MemAccess::Execute);
    U64 end = 0;
    for (U64 i = 0; i < g.copied; i++) {
        if (text[i])
            end = i + 1;
    }
    return USER_TEXT_VA + end;
}

/** Sweep the user text through `cache`, one block after another. */
Decoded
sweepText(Machine &machine, Context &ctx, U64 text_end,
          BasicBlockCache &cache)
{
    Decoded d;
    U64 rip = USER_TEXT_VA;
    while (rip < text_end) {
        ctx.rip = GuestVirt(rip);
        ContextCodeSource src(machine.addressSpace(), ctx);
        GuestFault fault = GuestFault::None;
        const BasicBlock *bb = cache.get(src, &fault);
        if (!bb || fault != GuestFault::None || bb->bytes == 0) {
            rip++;   // undecodable byte: step over it
            continue;
        }
        d.block_rips.push_back(rip);
        d.x86_insns += bb->x86_count;
        for (const Uop &u : bb->uops) {
            if (!u.isMem() && u.op != UopOp::Assist && u.op != UopOp::Fence
                && u.op != UopOp::Prefetch)
                d.alu_uops.push_back(u);
        }
        if (bb->end == BbEnd::CondBranch && !bb->uops.empty())
            d.branch_rips.push_back(bb->uops.back().rip);
        rip += bb->bytes;
    }
    return d;
}

struct CacheCounters
{
    StatsTree stats;
    BasicBlockCache cache{stats.counter("bbcache/hits"),
                          stats.counter("bbcache/misses"),
                          stats.counter("bbcache/smc_invalidations")};
};

void
decodeProbes(Machine &machine, ProbeResults &out, Decoded &decoded)
{
    Context ctx = machine.vcpu(0);
    ctx.kernel_mode = false;
    const U64 text_end = userTextEnd(machine, ctx);

    out.translate_ns_per_insn = medianOverReps([&] {
        CacheCounters fresh;
        Clock::time_point t0 = Clock::now();
        decoded = sweepText(machine, ctx, text_end, fresh.cache);
        return elapsedNs(t0) / (double)std::max<U64>(1, decoded.x86_insns);
    });

    CacheCounters warm;
    sweepText(machine, ctx, text_end, warm.cache);
    const size_t lookups = 200'000;
    out.bb_lookup_ns = medianOverReps([&] {
        U64 sink = 0;
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < lookups; i++) {
            ctx.rip = GuestVirt(
                decoded.block_rips[i % decoded.block_rips.size()]);
            ContextCodeSource src(machine.addressSpace(), ctx);
            GuestFault fault = GuestFault::None;
            sink += warm.cache.get(src, &fault)->x86_count;
        }
        double ns = elapsedNs(t0) / (double)lookups;
        probe_sink = sink;
        return ns;
    });
}

void
uopProbe(const Decoded &decoded, U64 seed, ProbeResults &out)
{
    const size_t n = decoded.alu_uops.size();
    std::vector<U64> operands(3 * n);
    U64 rng = seed ^ 0x0e8ec;
    for (U64 &v : operands)
        v = splitmix64(rng);
    const size_t execs = 400'000;
    out.exec_ns_per_uop = medianOverReps([&] {
        U64 sink = 0;
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < execs; i++) {
            size_t k = i % n;
            UopOutcome o = executeUop(decoded.alu_uops[k], operands[3 * k],
                                      operands[3 * k + 1],
                                      operands[3 * k + 2]);
            sink += o.value ^ o.flags;
        }
        double ns = elapsedNs(t0) / (double)execs;
        probe_sink = sink;
        return ns;
    });
}

void
branchProbe(const SimConfig &cfg, const Decoded &decoded, U64 seed,
            ProbeResults &out)
{
    // Each site gets a seeded taken-bias; the stream visits sites at
    // random, so the predictor sees a learnable but imperfect mix.
    const size_t sites = decoded.branch_rips.size();
    std::vector<U64> bias(sites);
    U64 rng = seed ^ 0xb7a4c;
    for (U64 &b : bias)
        b = splitmix64(rng) % 100;
    const size_t branches = 200'000;
    std::vector<U32> site(branches);
    std::vector<U8> taken(branches);
    for (size_t i = 0; i < branches; i++) {
        site[i] = (U32)(splitmix64(rng) % sites);
        taken[i] = splitmix64(rng) % 100 < bias[site[i]];
    }
    out.ns_per_branch = medianOverReps([&] {
        StatsTree stats;
        BranchPredictor predictor(cfg, stats, "probe/");
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < branches; i++) {
            U64 rip = decoded.branch_rips[site[i]];
            BranchPrediction p = predictor.predict(rip);
            predictor.resolve(rip, p, taken[i]);
        }
        return elapsedNs(t0) / (double)branches;
    });
}

/** Keeps a fixed number of events pending; each firing schedules a
 *  replacement at a seeded delay, as timer and device events do. */
struct EventChurn
{
    EventQueue *queue;
    const std::vector<U64> *delays;
    size_t fired = 0;
    size_t limit = 0;

    void
    fire(SimCycle now)
    {
        size_t k = fired++;
        if (fired + 64 <= limit)
            arm(now, k);
    }

    void
    arm(SimCycle now, size_t k)
    {
        queue->schedule(now + cycles((*delays)[k % delays->size()]),
                        EVPRI_GENERIC, [this](SimCycle t) { fire(t); });
    }
};

void
eventqProbe(U64 seed, ProbeResults &out)
{
    std::vector<U64> delays(4096);
    U64 rng = seed ^ 0xe7e47;
    for (U64 &d : delays)
        d = 1 + splitmix64(rng) % 20'000;
    const size_t events = 200'000;
    out.eventq_ns_per_event = medianOverReps([&] {
        StatsTree stats;
        EventQueue queue(stats);
        EventChurn churn{&queue, &delays, 0, events};
        Clock::time_point t0 = Clock::now();
        for (size_t k = 0; k < 64; k++)
            churn.arm(SimCycle(0), k);
        while (!queue.empty())
            queue.runDue(queue.nextDue());
        return elapsedNs(t0) / (double)churn.fired;
    });
}

/** Seeded line addresses spread over `bytes`. */
std::vector<U64>
lineAddresses(U64 &rng, U64 bytes, size_t count)
{
    std::vector<U64> out(count);
    for (U64 &a : out)
        a = (splitmix64(rng) % (bytes / 64)) * 64;
    return out;
}

void
memoryProbes(const SimConfig &cfg, U64 seed, ProbeResults &out)
{
    const U64 spill_bytes = 8 * cfg.l2.size_bytes;
    PhysMem mem(spill_bytes + (16 << 20), seed, true);
    AddressSpace aspace(mem);
    U64 rng = seed ^ 0x3e3;

    // dataAccess on a working set that fits L1 (after a warming pass)
    // and on one 8x the L2; each access starts when the last is done.
    auto accessRep = [&](const std::vector<U64> &addrs, bool warm) {
        StatsTree stats;
        MemoryHierarchy h(cfg, aspace, stats, "probe/");
        SimCycle now(0);
        if (warm) {
            for (U64 a : addrs)
                now = now + h.dataAccess(GuestPhys(a), false, now).latency
                      + cycles(1);
        }
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < addrs.size(); i++) {
            MemResult r = h.dataAccess(GuestPhys(addrs[i]), i % 8 == 7, now);
            now = now + r.latency + cycles(1);
        }
        return elapsedNs(t0) / (double)addrs.size();
    };
    std::vector<U64> resident = lineAddresses(rng, 16 << 10, 200'000);
    out.access_ns_resident =
        medianOverReps([&] { return accessRep(resident, true); });
    std::vector<U64> spill = lineAddresses(rng, spill_bytes, 100'000);
    out.access_ns_spill =
        medianOverReps([&] { return accessRep(spill, false); });

    // translateData over the pages of an 8x-L2 user mapping: the
    // 32-entry DTLB misses nearly every time, so this is the walker.
    const Pfn cr3 = aspace.createRoot();
    aspace.mapRange(cr3, GuestVirt(USER_DATA_VA), spill_bytes,
                    Pte::RW | Pte::US);
    std::vector<U64> pages(100'000);
    for (U64 &va : pages)
        va = USER_DATA_VA + (splitmix64(rng) % (spill_bytes >> 12)) * 4096;
    out.translate_ns = medianOverReps([&] {
        StatsTree stats;
        MemoryHierarchy h(cfg, aspace, stats, "probe/");
        SimCycle now(0);
        Clock::time_point t0 = Clock::now();
        for (U64 va : pages) {
            TranslateResult t =
                h.translateData(cr3, GuestVirt(va), false, true, now);
            now = now + t.latency + cycles(1);
        }
        return elapsedNs(t0) / (double)pages.size();
    });

    std::vector<U64> lines = lineAddresses(rng, spill_bytes, 200'000);
    out.backend_ns = medianOverReps([&] {
        StatsTree stats;
        std::unique_ptr<MemBackend> backend =
            makeMemBackend(cfg, stats, "probe/");
        SimCycle now(0);
        U64 sink = 0;
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < lines.size(); i++) {
            sink += backend->request(GuestPhys(lines[i]), i % 4 == 3, now)
                        .raw();
            now = now + cycles(4);
        }
        double ns = elapsedNs(t0) / (double)lines.size();
        probe_sink = sink;
        return ns;
    });
}

}  // namespace

ProbeResults
runProbes(Domain &domain, U64 seed)
{
    ProbeResults out;
    Machine &machine = domain.machine();
    Decoded decoded;
    decodeProbes(machine, out, decoded);
    uopProbe(decoded, seed, out);
    branchProbe(machine.config(), decoded, seed, out);
    eventqProbe(seed, out);
    memoryProbes(machine.config(), seed, out);
    return out;
}

}  // namespace perfbench
