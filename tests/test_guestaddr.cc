/**
 * Strong address types (lib/guestaddr.h): the sealed same-kind
 * algebra, page/offset splitting, compile-time rejection of the
 * cross-kind operations the types exist to forbid, and a machine
 * checkpoint round-trip of the typed address fields.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "lib/guestaddr.h"
#include "sys/checkpoint.h"
#include "sys/machine.h"

namespace ptl {
namespace {

// ---------------------------------------------------------------------
// Compile-time contract. Each assert is an operation that compiled
// fine on raw U64 and silently mixed address spaces — the bug class
// the OOO LSQ's virtual-address store-queue search fell into.
// ---------------------------------------------------------------------

// Register-sized, trivially copyable: the wrappers compile away.
static_assert(sizeof(GuestVirt) == sizeof(U64));
static_assert(sizeof(GuestPhys) == sizeof(U64));
static_assert(sizeof(Vpn) == sizeof(U64));
static_assert(sizeof(Pfn) == sizeof(U64));
static_assert(std::is_trivially_copyable_v<GuestVirt>);
static_assert(std::is_trivially_copyable_v<GuestPhys>);
static_assert(std::is_trivially_copyable_v<Vpn>);
static_assert(std::is_trivially_copyable_v<Pfn>);

// No implicit conversions in either direction: construction and the
// .raw() escape hatch are both explicit.
static_assert(!std::is_convertible_v<U64, GuestVirt>);
static_assert(!std::is_convertible_v<GuestVirt, U64>);
static_assert(!std::is_convertible_v<U64, GuestPhys>);
static_assert(!std::is_convertible_v<GuestPhys, U64>);
static_assert(!std::is_convertible_v<U64, Vpn>);
static_assert(!std::is_convertible_v<Pfn, U64>);

// No cross-kind assignment: a virtual address is not a physical one,
// a page number is not a byte address.
static_assert(!std::is_assignable_v<GuestVirt &, GuestPhys>);
static_assert(!std::is_assignable_v<GuestPhys &, GuestVirt>);
static_assert(!std::is_assignable_v<Vpn &, Pfn>);
static_assert(!std::is_assignable_v<Pfn &, Vpn>);
static_assert(!std::is_assignable_v<GuestVirt &, Vpn>);
static_assert(!std::is_assignable_v<GuestPhys &, Pfn>);

template <typename A, typename B>
constexpr bool can_add = requires(A a, B b) { a + b; };
template <typename A, typename B>
constexpr bool can_sub = requires(A a, B b) { a - b; };
template <typename A, typename B>
constexpr bool can_less = requires(A a, B b) { a < b; };
template <typename A, typename B>
constexpr bool can_eq = requires(A a, B b) { a == b; };
template <typename R, typename A, typename B>
constexpr bool adds_to = requires(A a, B b) {
    { a + b } -> std::same_as<R>;
};
template <typename R, typename A, typename B>
constexpr bool subs_to = requires(A a, B b) {
    { a - b } -> std::same_as<R>;
};

// Cross-kind arithmetic is meaningless: there is no operation taking
// a GuestVirt to a GuestPhys — translation is the only bridge.
static_assert(!can_add<GuestVirt, GuestPhys>);
static_assert(!can_sub<GuestVirt, GuestPhys>);
static_assert(!can_sub<GuestPhys, GuestVirt>);
static_assert(!can_add<Vpn, Pfn>);
static_assert(!can_sub<Vpn, Pfn>);
// Adding two byte addresses of the same kind is also meaningless
// (only address +/- byte offset and address - address exist).
static_assert(!can_add<GuestVirt, GuestVirt>);
static_assert(!can_add<GuestPhys, GuestPhys>);
// Comparisons and identity only work within a kind.
static_assert(!can_less<GuestVirt, GuestPhys>);
static_assert(!can_less<Vpn, Pfn>);
static_assert(!can_eq<GuestVirt, GuestPhys>);
static_assert(!can_eq<Vpn, Pfn>);
static_assert(!can_less<GuestVirt, U64>);
static_assert(!can_eq<GuestPhys, U64>);
// Page numbers do not mix with byte addresses even within a space.
static_assert(!can_add<GuestVirt, Vpn>);
static_assert(!can_eq<GuestVirt, Vpn>);
static_assert(!can_eq<GuestPhys, Pfn>);
// The legal algebra, for symmetry.
static_assert(adds_to<GuestVirt, GuestVirt, U64>);
static_assert(adds_to<GuestPhys, GuestPhys, U64>);
static_assert(subs_to<GuestVirt, GuestVirt, U64>);
static_assert(subs_to<U64, GuestVirt, GuestVirt>);
static_assert(subs_to<U64, GuestPhys, GuestPhys>);
static_assert(adds_to<Vpn, Vpn, U64>);
static_assert(adds_to<Pfn, Pfn, U64>);
static_assert(requires(GuestVirt va) {
    { va.vpn() } -> std::same_as<Vpn>;
    { va.pageOffset() } -> std::same_as<U64>;
});
static_assert(requires(GuestPhys pa) {
    { pa.pfn() } -> std::same_as<Pfn>;
});
static_assert(requires(Vpn vpn) {
    { vpn.pageBase() } -> std::same_as<GuestVirt>;
});
static_assert(requires(Pfn pfn) {
    { pfn.pageBase() } -> std::same_as<GuestPhys>;
});

// The checkpointed architectural state is typed, not raw words.
static_assert(std::is_same_v<decltype(Context::rip), GuestVirt>);
static_assert(std::is_same_v<decltype(Context::cr3), Pfn>);

TEST(GuestAddr, VirtAlgebra)
{
    GuestVirt va(0x401234);
    EXPECT_EQ(va.raw(), 0x401234ULL);
    EXPECT_EQ((va + 0x10).raw(), 0x401244ULL);
    EXPECT_EQ((va - 4).raw(), 0x401230ULL);
    EXPECT_EQ(va.withOffset(0x1000), va + 0x1000);
    EXPECT_EQ((va + 0x10) - va, 0x10ULL);
    va += 2;
    EXPECT_EQ(va, GuestVirt(0x401236));
    EXPECT_LT(va, va + 1);
    EXPECT_EQ(GuestVirt(), GuestVirt(0));
    EXPECT_EQ(va.alignedDown(64), GuestVirt(0x401200));
}

TEST(GuestAddr, PageSplitRoundTrips)
{
    GuestVirt va(0x7fff12345678);
    EXPECT_EQ(va.vpn(), Vpn(0x7fff12345));
    EXPECT_EQ(va.pageOffset(), 0x678ULL);
    EXPECT_EQ(va.vpn().pageBase() + va.pageOffset(), va);
    EXPECT_EQ(va.pageBase(), va.vpn().pageBase());

    GuestPhys pa(0x2345678);
    EXPECT_EQ(pa.pfn(), Pfn(0x2345));
    EXPECT_EQ(pa.pageOffset(), 0x678ULL);
    EXPECT_EQ(pa.pfn().pageBase() + pa.pageOffset(), pa);
    EXPECT_EQ(pa.pfn() + 1, Pfn(0x2346));
    // Stepping a page number moves the base a whole page.
    EXPECT_EQ((pa.pfn() + 1).pageBase() - pa.pageBase(), PAGE_SIZE);
}

TEST(GuestAddr, PhysAlgebra)
{
    GuestPhys pa(0x100000);
    EXPECT_EQ((pa + 64).raw(), 0x100040ULL);
    EXPECT_EQ((pa + 64).alignedDown(64) - pa, 64ULL);
    pa += PAGE_SIZE;
    EXPECT_EQ(pa.pfn(), Pfn(0x101));
    EXPECT_LT(GuestPhys(0x100), GuestPhys(0x101));
}

// ---------------------------------------------------------------------
// Machine-level round trip of the typed address fields.
// ---------------------------------------------------------------------

TEST(GuestAddr, CheckpointRoundTripsTypedAddressFields)
{
    SimConfig cfg = SimConfig::preset("k8");
    cfg.core = "seq";
    cfg.guest_mem_bytes = 16 << 20;
    Machine m(cfg);
    m.vcpu(0).running = false;
    m.finalizeCores();

    const GuestVirt rip_at_capture(0x400abc);
    const Pfn cr3_at_capture(0x42);
    m.vcpu(0).rip = rip_at_capture;
    m.vcpu(0).cr3 = cr3_at_capture;

    MachineCheckpoint ckpt = captureCheckpoint(m);
    // Capture leaves the live fields as they were.
    EXPECT_EQ(m.vcpu(0).rip, rip_at_capture);
    EXPECT_EQ(m.vcpu(0).cr3, cr3_at_capture);

    // Wander off, then roll back: the typed fields restore exactly.
    m.vcpu(0).rip = rip_at_capture + 0x100;
    m.vcpu(0).cr3 = Pfn(0x99);
    restoreCheckpoint(m, ckpt);
    EXPECT_EQ(m.vcpu(0).rip, rip_at_capture);
    EXPECT_EQ(m.vcpu(0).cr3, cr3_at_capture);
}

}  // namespace
}  // namespace ptl
