/**
 * @file
 * The basic block cache.
 *
 * PTLsim does not re-decode x86 instructions every time they enter the
 * pipeline: decoded uop sequences for whole basic blocks are cached.
 * In full-system mode the cache key is much more than the RIP
 * (Section 2.1): code is identified by its virtual address, the
 * machine frame (MFN) it starts on, the MFN it ends on when an
 * instruction crosses a page, and contextual bits (kernel vs. user
 * mode). Self-modifying code is handled by tracking which MFNs back
 * decoded blocks and invalidating them when stores touch those frames.
 * The cache is transparent to the modeled microarchitecture — it only
 * accelerates simulation.
 */

#ifndef PTLSIM_DECODE_BBCACHE_H_
#define PTLSIM_DECODE_BBCACHE_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "decode/translate.h"
#include "lib/guestaddr.h"
#include "lib/counter.h"
#include "uop/uopexec.h"

namespace ptl {

/** Upper bounds on block size (PTLsim-like). */
constexpr int MAX_BB_X86_INSNS = 16;
constexpr size_t MAX_BB_UOPS = 48;

/**
 * Where the cache reads guest code from. The decoder sits below the
 * machine layers, so it cannot see Context or AddressSpace; instead
 * the owner of those (core/context.h's ContextCodeSource) implements
 * this interface and the cache stays a pure decode-layer citizen.
 * Frame numbers (MFNs) key the self-modifying-code index.
 */
class CodeSource
{
  public:
    virtual ~CodeSource() = default;

    /** Fetch virtual address of the block's first instruction. */
    virtual GuestVirt rip() const = 0;

    /** Privilege context bit baked into the cache key. */
    virtual bool kernelMode() const = 0;

    /**
     * Translate one code byte at `va` for execute access. On success
     * returns GuestFault::None and sets *mfn to the byte's machine
     * frame number; on failure returns the fault.
     */
    virtual GuestFault translateExec(GuestVirt va, Pfn *mfn) const = 0;

    /**
     * Copy up to `len` code bytes starting at `va` into `dst`,
     * stopping at an unmapped page. Returns the number of bytes
     * copied; sets *first_mfn to the frame of the first byte (when
     * any byte copied) and *fault to the stopping fault (when short).
     */
    virtual size_t fetchCode(GuestVirt va, U8 *dst, size_t len,
                             Pfn *first_mfn, GuestFault *fault) const = 0;
};

/** A translated basic block. */
struct BasicBlock
{
    GuestVirt rip;
    Pfn mfn_lo;              ///< frame of the first instruction byte
    Pfn mfn_hi;              ///< frame of the last byte (page crossing)
    bool kernel = false;     ///< decoded-in-kernel-mode context bit
    std::vector<Uop> uops;
    BbEnd end = BbEnd::None;
    U32 bytes = 0;
    U32 x86_count = 0;
};

class BasicBlockCache
{
  public:
    /** Counters come from StatsTree::counter("bbcache/..."); the
     *  cache itself never sees the tree (layering). */
    BasicBlockCache(Counter &hits, Counter &misses,
                    Counter &smc_invalidations);

    /**
     * Find or decode the block starting at code.rip() under code's
     * translation context. Returns nullptr with *fault set if the
     * first instruction byte cannot be fetched.
     */
    const BasicBlock *get(const CodeSource &code, GuestFault *fault);

    /** A store touched machine frame `mfn`: drop every block it backs
     *  (self-modifying code). Returns the number invalidated. */
    int invalidateMfn(Pfn mfn);

    /** True if `mfn` has an entry in the frame index (mfn_index). */
    bool
    isCodeMfn(Pfn mfn) const
    {
        return mfn_index.count(mfn.raw()) != 0;
    }

    /** Drop everything (native<->sim transitions, tests). */
    void invalidateAll();

    size_t size() const { return count; }

    /** Bumped on every invalidation; lets engines detect that cached
     *  BasicBlock pointers may have been freed. */
    U64 generation() const { return gen; }

  private:
    struct Key
    {
        GuestVirt rip;
        Pfn mfn_lo;
        bool kernel;
        bool operator==(const Key &o) const
        {
            return rip == o.rip && mfn_lo == o.mfn_lo && kernel == o.kernel;
        }
    };
    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            return (size_t)(k.rip.raw() * 0x9e3779b97f4a7c15ULL
                            ^ (k.mfn_lo.raw() << 17) ^ (U64)k.kernel);
        }
    };

    std::unique_ptr<BasicBlock> decode(const CodeSource &code,
                                       GuestFault *fault);

    std::unordered_map<Key, std::unique_ptr<BasicBlock>, KeyHash> blocks;
    std::unordered_map<U64, std::unordered_set<const BasicBlock *>>
        mfn_index;
    size_t count = 0;
    U64 gen = 0;

    Counter &st_hits;
    Counter &st_misses;
    Counter &st_smc_invalidations;
};

}  // namespace ptl

#endif  // PTLSIM_DECODE_BBCACHE_H_
