#include "mem/physmem.h"

#include <cstring>
#include <numeric>

#include "lib/logging.h"
#include "lib/rng.h"

namespace ptl {

PhysMem::PhysMem(U64 bytes, U64 seed, bool shuffle)
    : frame_count(framesFor(bytes)),
      data(zeroedStorage(frame_count)), free_list([&] {
          std::vector<U64> order(frame_count);
          std::iota(order.begin(), order.end(), U64(0));
          // Fisher-Yates with the deterministic RNG: guest-contiguous
          // allocations land on scattered machine frames, like Xen.
          Rng rng(seed ^ 0x5EED5EEDULL);
          for (U64 i = frame_count - 1; shuffle && i > 0; i--)
              std::swap(order[i], order[rng.below(i + 1)]);
          return order;
      }())
{
}

U64
PhysMem::framesFor(U64 bytes)
{
    U64 frames = alignUp(bytes, PAGE_SIZE) >> PAGE_SHIFT;
    if (frames == 0)
        fatal("guest memory of %llu bytes holds no %llu-byte frame",
              (unsigned long long)bytes, (unsigned long long)PAGE_SIZE);
    return frames;
}

PhysMem::Storage
PhysMem::zeroedStorage(U64 frames)
{
    Storage s(static_cast<U8 *>(std::calloc(frames, PAGE_SIZE)));
    if (!s)
        fatal("cannot allocate %llu frames of guest physical memory",
              (unsigned long long)frames);
    return s;
}

Pfn
PhysMem::allocFrame()
{
    if (next_free >= free_list.size())
        fatal("guest physical memory exhausted (%llu frames)",
              (unsigned long long)frame_count);
    return Pfn(free_list[next_free++]);
}

void
PhysMem::checkFrame(Pfn mfn) const
{
    if (mfn.raw() >= frame_count)
        panic("machine frame %llu out of range (%llu frames)",
              (unsigned long long)mfn.raw(),
              (unsigned long long)frame_count);
}

U8 *
PhysMem::frameData(Pfn mfn)
{
    checkFrame(mfn);
    return data.get() + mfn.raw() * PAGE_SIZE;
}

const U8 *
PhysMem::frameData(Pfn mfn) const
{
    checkFrame(mfn);
    return data.get() + mfn.raw() * PAGE_SIZE;
}

void
PhysMem::visit(Archive &ar)
{
    ar.size(frame_count);
    ar(next_free);
    std::vector<U64> written;  // MFNs of the frames holding a non-zero byte
    if (!ar.loading()) {
        static const U8 zero_frame[PAGE_SIZE] = {};
        for (U64 mfn = 0; mfn < frame_count; mfn++) {
            if (std::memcmp(data.get() + mfn * PAGE_SIZE, zero_frame,
                            PAGE_SIZE) != 0)
                written.push_back(mfn);
        }
    } else {
        data = zeroedStorage(frame_count);
    }
    ar.length(written);
    for (size_t i = 0; i < written.size(); i++) {
        ar(written[i]);
        if (written[i] >= frame_count)
            fatal("checkpoint: frame record %zu names MFN %llu, past the "
                  "%llu frames", i, (unsigned long long)written[i],
                  (unsigned long long)frame_count);
        if (i > 0 && written[i] <= written[i - 1])
            fatal("checkpoint: frame record %zu names MFN %llu, not above "
                  "the previous MFN %llu", i,
                  (unsigned long long)written[i],
                  (unsigned long long)written[i - 1]);
        ar.bytes(std::span<U8>(data.get() + written[i] * PAGE_SIZE,
                               PAGE_SIZE));
    }
}

U64
PhysMem::read(GuestPhys paddr, unsigned bytes) const
{
    ptl_assert(bytes >= 1 && bytes <= 8);
    U64 v = 0;
    U64 off = paddr.pageOffset();
    if (off + bytes <= PAGE_SIZE)
        std::memcpy(&v, frameData(paddr.pfn()) + off, bytes);
    else
        readBytes(paddr, &v, bytes);
    return v;
}

void
PhysMem::write(GuestPhys paddr, U64 value, unsigned bytes)
{
    ptl_assert(bytes >= 1 && bytes <= 8);
    U64 off = paddr.pageOffset();
    if (off + bytes <= PAGE_SIZE)
        std::memcpy(frameData(paddr.pfn()) + off, &value, bytes);
    else
        writeBytes(paddr, &value, bytes);
}

void
PhysMem::readBytes(GuestPhys paddr, void *out, size_t n) const
{
    U8 *dst = (U8 *)out;
    while (n > 0) {
        Pfn mfn = paddr.pfn();
        U64 off = paddr.pageOffset();
        size_t chunk = std::min<size_t>(n, PAGE_SIZE - off);
        std::memcpy(dst, frameData(mfn) + off, chunk);
        dst += chunk;
        paddr += chunk;
        n -= chunk;
    }
}

void
PhysMem::writeBytes(GuestPhys paddr, const void *in, size_t n)
{
    const U8 *src = (const U8 *)in;
    while (n > 0) {
        Pfn mfn = paddr.pfn();
        U64 off = paddr.pageOffset();
        size_t chunk = std::min<size_t>(n, PAGE_SIZE - off);
        std::memcpy(frameData(mfn) + off, src, chunk);
        src += chunk;
        paddr += chunk;
        n -= chunk;
    }
}

}  // namespace ptl
