#include "decode/bbcache.h"

#include "lib/logging.h"

namespace ptl {

BasicBlockCache::BasicBlockCache(Counter &hits, Counter &misses,
                                 Counter &smc_invalidations)
    : st_hits(hits),
      st_misses(misses),
      st_smc_invalidations(smc_invalidations)
{
}

const BasicBlock *
BasicBlockCache::get(const CodeSource &code, GuestFault *fault)
{
    *fault = GuestFault::None;
    // The key needs the starting MFN: translate the first byte.
    Pfn mfn_first;
    GuestFault tf = code.translateExec(code.rip(), &mfn_first);
    if (tf != GuestFault::None) {
        *fault = tf;
        return nullptr;
    }
    Key key{code.rip(), mfn_first, code.kernelMode()};
    auto it = blocks.find(key);
    if (it != blocks.end()) {
        st_hits++;
        return it->second.get();
    }
    st_misses++;
    std::unique_ptr<BasicBlock> bb = decode(code, fault);
    if (!bb)
        return nullptr;
    // Precompute scheduling metadata (uop class, flag-group inputs,
    // destination-write flag) once per block: every core that fetches
    // these uops reads the cached fields instead of re-deriving them
    // per dynamic instance.
    for (Uop &u : bb->uops)
        u.precomputeSched();
    BasicBlock *raw = bb.get();
    mfn_index[bb->mfn_lo.raw()].insert(raw);
    if (bb->mfn_hi != bb->mfn_lo)
        mfn_index[bb->mfn_hi.raw()].insert(raw);
    blocks.emplace(key, std::move(bb));
    count++;
    return raw;
}

std::unique_ptr<BasicBlock>
BasicBlockCache::decode(const CodeSource &code, GuestFault *fault)
{
    auto bb = std::make_unique<BasicBlock>();
    bb->rip = code.rip();
    bb->kernel = code.kernelMode();

    Translator translator(bb->uops);
    GuestVirt rip = code.rip();
    for (int i = 0; i < MAX_BB_X86_INSNS; i++) {
        // Gather up to 15 bytes, stopping at an unmapped page.
        U8 bytes[MAX_X86_INSN_BYTES];
        Pfn first_mfn;
        GuestFault copy_fault = GuestFault::None;
        size_t avail = code.fetchCode(rip, bytes, MAX_X86_INSN_BYTES,
                                      &first_mfn, &copy_fault);
        if (avail == 0) {
            // Even the first byte is unfetchable.
            if (i == 0) {
                *fault = copy_fault;
                return nullptr;
            }
            // Mid-block: close the block; the fault (if ever reached)
            // is taken when fetch gets here again. All fetched bytes
            // fit on the starting page (a block is far smaller than a
            // page), so mfn_lo from instruction 0 covers the block.
            translator.sealWithJump(rip, rip);
            bb->end = BbEnd::SizeLimit;
            bb->bytes = (U32)(rip - bb->rip);
            bb->x86_count = (U32)i;
            bb->mfn_hi = bb->mfn_lo;
            return bb;
        }
        if (i == 0)
            bb->mfn_lo = first_mfn;

        X86Insn insn = decodeX86(bytes, avail, rip.raw());
        if (!insn.valid && insn.length == 0 && avail < MAX_X86_INSN_BYTES) {
            // Truncated by an unmapped page: the instruction straddles
            // into a fault. Raise #PF(fetch) at execution time via an
            // assist placed at this RIP.
            insn.valid = false;
            insn.length = 1;
        }

        BbEnd end = translator.translate(insn);
        GuestVirt end_byte_rip =
            rip + (insn.length ? insn.length - 1 : 0);
        Pfn end_mfn;
        if (code.translateExec(end_byte_rip, &end_mfn)
            == GuestFault::None)
            bb->mfn_hi = end_mfn;
        rip = GuestVirt(insn.nextRip());
        bb->x86_count++;

        if (end != BbEnd::None) {
            bb->end = end;
            break;
        }
        if (translator.uopCount() >= MAX_BB_UOPS
            || bb->x86_count >= MAX_BB_X86_INSNS) {
            translator.sealWithJump(rip, rip);
            bb->end = BbEnd::SizeLimit;
            break;
        }
    }
    if (bb->mfn_hi == Pfn(0))
        bb->mfn_hi = bb->mfn_lo;
    bb->bytes = (U32)(rip - bb->rip);
    ptl_assert(!bb->uops.empty());
    ptl_assert(bb->uops.back().eom);
    return bb;
}

int
BasicBlockCache::invalidateMfn(Pfn mfn)
{
    auto it = mfn_index.find(mfn.raw());
    if (it == mfn_index.end())
        return 0;
    gen++;
    std::unordered_set<const BasicBlock *> victims = std::move(it->second);
    mfn_index.erase(it);
    // Erase-only loop over the victim set: every victim is removed by
    // its own key and the counters see only the total, so unordered
    // iteration is safe.
    for (const BasicBlock *bb : victims) {  // simlint: nondet-taint-ok
        // Also unhook from the other frame's index.
        Pfn other = (bb->mfn_lo == mfn) ? bb->mfn_hi : bb->mfn_lo;
        if (other != mfn) {
            auto oit = mfn_index.find(other.raw());
            if (oit != mfn_index.end())
                oit->second.erase(bb);
        }
        size_t erased = blocks.erase(Key{bb->rip, bb->mfn_lo, bb->kernel});
        ptl_assert(erased == 1);
    }
    count -= victims.size();
    st_smc_invalidations += (U64)victims.size();
    return (int)victims.size();
}

void
BasicBlockCache::invalidateAll()
{
    blocks.clear();
    mfn_index.clear();
    count = 0;
    gen++;
}

}  // namespace ptl
