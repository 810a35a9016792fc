/**
 * @file
 * MFN-indirected guest physical memory.
 *
 * Under Xen paravirtualization, a domain does not own a linear span of
 * physical memory starting at address zero: the hypervisor hands it an
 * arbitrary, generally non-contiguous set of machine frame numbers
 * (MFNs). PTLsim maps all of the domain's frames into its own address
 * space and performs *every* cache/memory operation on machine-physical
 * addresses (Sections 3 and 4.3 of the paper). PhysMem models exactly
 * that: a pool of 4 KB machine frames, an allocator that (optionally,
 * and by default) hands frames out in a seeded-shuffled order so that
 * guest-contiguous pages land on scattered machine addresses — which is
 * what makes physically-tagged cache conflict behaviour differ from a
 * virtually-tagged userspace simulator.
 */

#ifndef PTLSIM_MEM_PHYSMEM_H_
#define PTLSIM_MEM_PHYSMEM_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "lib/archive.h"
#include "lib/bitops.h"
#include "lib/guestaddr.h"

namespace ptl {

/** The machine's physical memory, organized as 4 KB frames. */
class PhysMem
{
  public:
    /**
     * @param bytes   total machine memory (rounded up to whole frames)
     * @param seed    determinism seed for the allocation order shuffle
     * @param shuffle hand out MFNs in shuffled (non-contiguous) order
     */
    PhysMem(U64 bytes, U64 seed = 42, bool shuffle = true);

    U64 frameCount() const { return frame_count; }

    /** Allocate one machine frame; fatal() when exhausted. */
    Pfn allocFrame();

    /** Raw pointer to a frame's 4 KB of data. */
    U8 *frameData(Pfn mfn);
    const U8 *frameData(Pfn mfn) const;

    /**
     * Byte-addressed machine-physical accessors. Accesses may cross
     * frame boundaries (the simulator's unaligned-access support relies
     * on this). `bytes` must be 1..8 for the value forms, which copy
     * straight from the frame and leave the chunk loop of
     * readBytes/writeBytes to frame-crossing accesses.
     */
    U64 read(GuestPhys paddr, unsigned bytes) const;
    void write(GuestPhys paddr, U64 value, unsigned bytes);
    void readBytes(GuestPhys paddr, void *out, size_t n) const;
    void writeBytes(GuestPhys paddr, const void *in, size_t n);

    /**
     * Checkpoint: the frame count (checked on load), the allocator
     * cursor, then one record per frame that holds a non-zero byte,
     * in rising MFN order: its MFN, then its bytes eight to a word.
     * Every frame is scanned, not only the allocated ones, because a
     * guest can store into any MFN (a PTE or HC_new_baseptr may name
     * a frame allocFrame never handed out). Load starts from fresh
     * zeroed storage, so frames written after the capture read zero.
     */
    void visit(Archive &ar);

  private:
    struct FreeDeleter
    {
        void operator()(U8 *p) const { std::free(p); }
    };
    using Storage = std::unique_ptr<U8[], FreeDeleter>;

    /** Whole frames in `bytes` rounded up; fatal() when that is none
     *  (zero bytes, or a size that wraps when rounded). */
    static U64 framesFor(U64 bytes);

    /** calloc'd frames: the host maps a page only when it is written,
     *  so frames the guest never touches cost no memory. */
    static Storage zeroedStorage(U64 frames);

    void checkFrame(Pfn mfn) const;

    const U64 frame_count;
    Storage data;  ///< frame_count * PAGE_SIZE bytes
    const std::vector<U64> free_list;  ///< allocation order (seeded)
    size_t next_free = 0;
};

}  // namespace ptl

#endif  // PTLSIM_MEM_PHYSMEM_H_
