// address-kind good fixture: the legitimate uses of address .raw() —
// serialization of the raw word, same-kind re-wrap on restore, typed
// same-kind algebra, translation as the only virt->phys bridge, and
// an argumented waiver at a documented ABI-bridge site.

#include <vector>

using U64 = unsigned long long;

struct GuestVirt {
    U64 raw() const;
    GuestVirt pageBase() const;
};
struct GuestPhys {
    U64 raw() const;
};

namespace ptl {

GuestPhys walk(GuestVirt va);

void serialize(std::vector<U64> &out, GuestVirt va, GuestPhys paddr)
{
    out.push_back(va.raw());     // raw words are the wire format
    out.push_back(paddr.raw());
}

GuestVirt restore(const std::vector<U64> &words)
{
    return GuestVirt(words[0]);  // same-kind re-wrap
}

bool samePage(GuestVirt a_va, GuestVirt b_va)
{
    return a_va.pageBase() == b_va.pageBase();  // typed algebra
}

GuestPhys bridge(GuestVirt va)
{
    return walk(va);             // translation is the bridge
}

U64 archImage(GuestVirt va)
{
    U64 image = va.raw();        // register images are raw words;
    return image;                // taint without a sink is clean
}

// Template parameter lists declare compile-time constants, not
// address variables, even when their names look like addresses.
template <U64 base_vaddr = 0, unsigned long long first_pfn = 1>
struct Window
{
    GuestVirt base;
};

bool identityMapped(GuestVirt va, GuestPhys paddr)
{
    return va.raw() == paddr.raw();  // simlint: addr-ok(identity mapping check compares the numeric words by design)
}

}  // namespace ptl
