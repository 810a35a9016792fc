/**
 * @file
 * Pluggable main-memory timing backends.
 *
 * The original hierarchy bottomed out in one scalar (cfg.mem_latency
 * added inline on the miss path), which made memory-technology
 * studies impossible without forking the cache code. MemBackend is
 * the narrow request/complete interface the hierarchy now calls
 * instead: a request issued at `now` returns the absolute SimCycle at
 * which the line is available, and all backend-internal state (bank
 * busy stamps, open rows, deferred writes) advances deterministically
 * from those typed stamps.
 *
 * Three models ship behind the interface (selected by
 * SimConfig::membackend.kind, i.e. purely from config):
 *
 *  - FixedLatencyBackend: every access costs cfg.mem_latency. This is
 *    the bit-identical default — the pre-refactor timing.
 *  - BankedDramBackend: rank/bank/row-buffer model. Accesses map to a
 *    bank by row interleaving; an access to the bank's open row pays
 *    t_cas, a conflict pays t_rp + t_rcd + t_cas, and a busy bank
 *    queues behind its busy-until stamp.
 *  - HybridBackend: an eDRAM cache fronting a PCM store. Reads that
 *    miss the eDRAM pay the PCM array read; PCM's slow asymmetric
 *    writes are absorbed by a bounded deferred-write queue that
 *    drains FIFO onto idle banks (or synchronously when full).
 *
 * Layering: mem/ sits below sys/, so backends cannot see the event
 * queue. The inversion is nextDue()/drainTo(): backends self-drain
 * lazily from the typed stamps whenever they are called (the result
 * depends only on simulated time, not call cadence), and cores fold
 * nextDue() into their sleep hints so skip-ahead never overshoots
 * pending deferred work.
 *
 * Checkpointing: each backend's visit(Archive &) saves and loads the
 * complete timing state through one body (lib/archive.h), so a
 * mid-flight image round-trips bit-exactly. Machine checkpoints
 * instead quiesce the microarchitecture on BOTH capture and restore
 * (resetTimebase), which keeps resumes cycle-exact by construction.
 */

#ifndef PTLSIM_MEM_MEMBACKEND_H_
#define PTLSIM_MEM_MEMBACKEND_H_

#include <memory>
#include <string>

#include "lib/archive.h"
#include "lib/config.h"
#include "lib/guestaddr.h"
#include "lib/simtime.h"
#include "stats/stats.h"

namespace ptl {

/** Main-memory timing model: the narrow hierarchy-to-memory seam. */
class MemBackend
{
  public:
    virtual ~MemBackend() = default;

    /**
     * Introspection snapshot for the invariant checker and tests:
     * live deferred-write occupancy and the latest bank stamp.
     */
    struct AuditView
    {
        size_t deferred_depth = 0;     ///< queued deferred writes
        size_t deferred_capacity = 0;  ///< 0 when the model has none
        SimCycle max_bank_busy;        ///< latest busy-until stamp
        bool banked = false;           ///< model has per-bank stamps
    };

    /**
     * Issue a line-granular access at `now`; returns the absolute
     * cycle at which the data is available (>= now).
     */
    virtual SimCycle request(GuestPhys line_addr, bool is_write,
                             SimCycle now) = 0;

    /**
     * Earliest cycle at which internal deferred work wants service,
     * or CYCLE_NEVER. Cores fold this into their sleep hints.
     */
    virtual SimCycle nextDue() const { return CYCLE_NEVER; }

    /** Run internal maintenance (deferred-write drains) up to `now`. */
    virtual void drainTo(SimCycle now) { (void)now; }

    /**
     * Virtual time warped (checkpoint capture/restore): drop every
     * absolute stamp so the rolled-back clock sees a quiesced memory.
     */
    virtual void resetTimebase() = 0;

    /** Save or load the complete timing state (lib/archive.h). */
    virtual void visit(Archive &ar) = 0;

    virtual AuditView audit() const { return {}; }

    virtual const char *name() const = 0;
};

/**
 * Build the backend selected by cfg.membackend, registering its
 * counters under `prefix` + "membackend/".
 */
std::unique_ptr<MemBackend> makeMemBackend(const SimConfig &cfg,
                                           StatsTree &stats,
                                           const std::string &prefix);

}  // namespace ptl

#endif  // PTLSIM_MEM_MEMBACKEND_H_
