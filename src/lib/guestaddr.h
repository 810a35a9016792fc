/**
 * @file
 * Strong types for the three address spaces.
 *
 * PTLsim's full-system mode constantly juggles guest-virtual
 * addresses, machine-physical addresses and machine frame numbers
 * (Sections 3 and 4.3: every cache and memory operation happens on
 * machine-physical addresses, while the pipeline, decoder and guest
 * kernel think in virtual addresses). Represented as raw U64 they are
 * interchangeable by accident: a virtual address indexes PhysMem, a
 * frame number is handed to a byte-addressed API, a page offset is
 * added to the wrong base. The paper's own RIPVirtPhys split exists
 * because exactly this bug class bit the original authors.
 *
 * Four wrapper types make those confusions compile errors, the same
 * playbook lib/simtime.h applied to cycles:
 *
 *  - GuestVirt  a guest-virtual byte address (RIPs included);
 *  - GuestPhys  a machine-physical byte address;
 *  - Vpn        a virtual page number  (GuestVirt >> 12);
 *  - Pfn        a machine frame number (GuestPhys >> 12; the code
 *               historically calls these MFNs, after Xen).
 *
 * The sealed algebra:
 *
 *     GuestVirt + bytes / - bytes  -> GuestVirt   (same-kind offset)
 *     GuestVirt - GuestVirt        -> U64         (byte distance)
 *     GuestVirt::vpn()             -> Vpn
 *     GuestVirt::pageOffset()      -> U64
 *     Vpn::pageBase()              -> GuestVirt
 *     GuestPhys + bytes / - bytes  -> GuestPhys
 *     GuestPhys - GuestPhys        -> U64
 *     GuestPhys::pfn()             -> Pfn
 *     Pfn::pageBase()              -> GuestPhys
 *
 * Comparisons only work within a kind. There is NO operation taking a
 * GuestVirt to a GuestPhys: translation (AddressSpace::walk and the
 * transcache in mem/) is the only bridge, and it goes through
 * PageWalk::paddr(), which combines a walked leaf Pfn with the
 * virtual page offset. Construction from a raw integer is explicit,
 * and the escape hatch back is the explicit `.raw()` — the token the
 * simlint address-kind rule keys on: a `.raw()` value that re-enters
 * address arithmetic, or crosses to a parameter of the opposite
 * kind, is a finding.
 *
 * Everything is constexpr and trivially copyable; at -O1+ the
 * wrappers compile to raw U64 arithmetic (perfbench's run_s and
 * mem.translate_ns would show a wrapper that did not).
 */

#ifndef PTLSIM_LIB_GUESTADDR_H_
#define PTLSIM_LIB_GUESTADDR_H_

#include <compare>

#include "lib/bitops.h"

namespace ptl {

constexpr unsigned PAGE_SHIFT = 12;
constexpr U64 PAGE_SIZE = 1ULL << PAGE_SHIFT;
constexpr U64 PAGE_MASK = PAGE_SIZE - 1;

/** Raw-value page helpers (implementation plumbing; typed code uses
 *  the member forms below). */
constexpr U64 pageOffset(U64 addr) { return addr & PAGE_MASK; }

class GuestVirt;
class GuestPhys;

/** A virtual page number: GuestVirt >> PAGE_SHIFT. */
class Vpn
{
  public:
    constexpr Vpn() = default;
    explicit constexpr Vpn(U64 n) : n_(n) {}

    /** Escape hatch (hash/index math, logging, serialization). */
    constexpr U64 raw() const { return n_; }

    /** First byte of the page (back to the virtual byte space). */
    constexpr GuestVirt pageBase() const;

    /** The page `pages` further on (loop stepping). */
    constexpr Vpn operator+(U64 pages) const { return Vpn(n_ + pages); }

    constexpr auto operator<=>(const Vpn &) const = default;

  private:
    U64 n_ = 0;
};

/** A machine frame number (MFN in the Xen-derived code). */
class Pfn
{
  public:
    constexpr Pfn() = default;
    explicit constexpr Pfn(U64 n) : n_(n) {}

    /** Escape hatch (frame indexing, logging, serialization). */
    constexpr U64 raw() const { return n_; }

    /** First byte of the frame (back to the physical byte space). */
    constexpr GuestPhys pageBase() const;

    constexpr Pfn operator+(U64 frames) const { return Pfn(n_ + frames); }

    constexpr auto operator<=>(const Pfn &) const = default;

  private:
    U64 n_ = 0;
};

/** A guest-virtual byte address (data addresses and RIPs). */
class GuestVirt
{
  public:
    constexpr GuestVirt() = default;
    explicit constexpr GuestVirt(U64 a) : a_(a) {}

    /** Escape hatch to the raw bit pattern (register images, hashes,
     *  logging, serialization) — the address-kind lint token. */
    constexpr U64 raw() const { return a_; }

    constexpr Vpn vpn() const { return Vpn(a_ >> PAGE_SHIFT); }
    constexpr U64 pageOffset() const { return a_ & PAGE_MASK; }
    constexpr GuestVirt pageBase() const
    {
        return GuestVirt(a_ & ~PAGE_MASK);
    }

    /** Same-kind byte offset (negative offsets via wraparound, like
     *  pointer math). */
    constexpr GuestVirt withOffset(U64 bytes) const
    {
        return GuestVirt(a_ + bytes);
    }
    constexpr GuestVirt operator+(U64 bytes) const
    {
        return GuestVirt(a_ + bytes);
    }
    constexpr GuestVirt operator-(U64 bytes) const
    {
        return GuestVirt(a_ - bytes);
    }
    GuestVirt &
    operator+=(U64 bytes)
    {
        a_ += bytes;
        return *this;
    }

    /** Byte distance between two virtual addresses. */
    constexpr U64 operator-(GuestVirt o) const { return a_ - o.a_; }

    constexpr GuestVirt alignedDown(U64 align) const
    {
        return GuestVirt(a_ & ~(align - 1));
    }

    constexpr auto operator<=>(const GuestVirt &) const = default;

  private:
    U64 a_ = 0;
};

/** A machine-physical byte address. */
class GuestPhys
{
  public:
    constexpr GuestPhys() = default;
    explicit constexpr GuestPhys(U64 a) : a_(a) {}

    /** Escape hatch to the raw bit pattern (PhysMem indexing, bank
     *  hashes, logging, serialization) — the address-kind lint
     *  token. */
    constexpr U64 raw() const { return a_; }

    constexpr Pfn pfn() const { return Pfn(a_ >> PAGE_SHIFT); }
    constexpr U64 pageOffset() const { return a_ & PAGE_MASK; }
    constexpr GuestPhys pageBase() const
    {
        return GuestPhys(a_ & ~PAGE_MASK);
    }

    constexpr GuestPhys withOffset(U64 bytes) const
    {
        return GuestPhys(a_ + bytes);
    }
    constexpr GuestPhys operator+(U64 bytes) const
    {
        return GuestPhys(a_ + bytes);
    }
    constexpr GuestPhys operator-(U64 bytes) const
    {
        return GuestPhys(a_ - bytes);
    }
    GuestPhys &
    operator+=(U64 bytes)
    {
        a_ += bytes;
        return *this;
    }

    /** Byte distance between two physical addresses. */
    constexpr U64 operator-(GuestPhys o) const { return a_ - o.a_; }

    /** Containing aligned block (cache lines, banks). */
    constexpr GuestPhys alignedDown(U64 align) const
    {
        return GuestPhys(a_ & ~(align - 1));
    }

    constexpr auto operator<=>(const GuestPhys &) const = default;

  private:
    U64 a_ = 0;
};

constexpr GuestVirt
Vpn::pageBase() const
{
    return GuestVirt(n_ << PAGE_SHIFT);
}

constexpr GuestPhys
Pfn::pageBase() const
{
    return GuestPhys(n_ << PAGE_SHIFT);
}

}  // namespace ptl

#endif  // PTLSIM_LIB_GUESTADDR_H_
