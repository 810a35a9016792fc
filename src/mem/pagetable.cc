#include "mem/pagetable.h"

#include <cstring>

#include "lib/logging.h"

namespace ptl {

GuestFault
checkPageAccess(bool present, bool writable, bool user, bool noexec,
                MemAccess kind, bool user_mode)
{
    auto fault_kind = [&] {
        switch (kind) {
          case MemAccess::Read: return GuestFault::PageFaultRead;
          case MemAccess::Write: return GuestFault::PageFaultWrite;
          default: return GuestFault::PageFaultFetch;
        }
    };
    if (!present)
        return fault_kind();
    if (kind == MemAccess::Write && !writable)
        return fault_kind();
    if (user_mode && !user)
        return fault_kind();
    if (kind == MemAccess::Execute && noexec)
        return fault_kind();
    return GuestFault::None;
}

GuestFault
checkWalkAccess(const PageWalk &walk, MemAccess kind, bool user_mode)
{
    return checkPageAccess(walk.present, walk.writable, walk.user,
                           walk.noexec, kind, user_mode);
}

Pfn
AddressSpace::allocTable()
{
    Pfn mfn = mem->allocFrame();
    std::memset(mem->frameData(mfn), 0, PAGE_SIZE);
    return mfn;
}

Pfn
AddressSpace::createRoot()
{
    tcache.flushAll();
    return allocTable();
}

Pfn
AddressSpace::cloneRoot(Pfn src_cr3)
{
    Pfn mfn = allocTable();
    std::memcpy(mem->frameData(mfn), mem->frameData(src_cr3), PAGE_SIZE);
    tcache.flushAll();
    return mfn;
}

void
AddressSpace::map(Pfn cr3, GuestVirt va, Pfn mfn, U64 flags)
{
    ptl_assert(va.pageOffset() == 0);
    Pfn table = cr3;
    for (int level = 0; level < 3; level++) {
        GuestPhys pte_addr =
            table.pageBase().withOffset(pageTableIndex(va, level) * 8);
        U64 pte = mem->read(pte_addr, 8);
        if (!(pte & Pte::P)) {
            Pfn next = allocTable();
            pte = next.pageBase().raw() | Pte::P | Pte::RW | Pte::US;
            mem->write(pte_addr, pte, 8);
        }
        table = Pfn((pte & Pte::ADDR_MASK) >> PAGE_SHIFT);
    }
    GuestPhys leaf_addr =
        table.pageBase().withOffset(pageTableIndex(va, 3) * 8);
    U64 leaf = mfn.pageBase().raw() | Pte::P
               | (flags & (Pte::RW | Pte::US | Pte::NX));
    mem->write(leaf_addr, leaf, 8);
    tcache.flushAll();
}

void
AddressSpace::mapRange(Pfn cr3, GuestVirt va, U64 bytes, U64 flags)
{
    ptl_assert(va.pageOffset() == 0);
    for (U64 off = 0; off < alignUp(bytes, PAGE_SIZE); off += PAGE_SIZE)
        map(cr3, va + off, mem->allocFrame(), flags);
}

void
AddressSpace::unmap(Pfn cr3, GuestVirt va)
{
    PageWalk w = walk(cr3, va);
    if (!w.present)
        return;
    mem->write(w.pte_addr[3], 0, 8);
    tcache.flushAll();
}

PageWalk
AddressSpace::walk(Pfn cr3, GuestVirt va) const
{
    PageWalk out;
    // Effective permissions are the AND across levels on real x86;
    // our intermediate tables are always RW|US so the leaf governs.
    Pfn table = cr3;
    for (int level = 0; level < 4; level++) {
        GuestPhys pte_addr =
            table.pageBase().withOffset(pageTableIndex(va, level) * 8);
        out.pte_addr[level] = pte_addr;
        out.levels = level + 1;
        U64 pte = mem->read(pte_addr, 8);
        out.pte[level] = pte;
        if (!(pte & Pte::P))
            return out;  // not present at this level
        if (level == 3) {
            out.present = true;
            out.writable = pte & Pte::RW;
            out.user = pte & Pte::US;
            out.noexec = pte & Pte::NX;
            out.dirty = pte & Pte::D;
            out.mfn = Pfn((pte & Pte::ADDR_MASK) >> PAGE_SHIFT);
        }
        table = Pfn((pte & Pte::ADDR_MASK) >> PAGE_SHIFT);
    }
    return out;
}

void
AddressSpace::registerWalkFrames(const PageWalk &walk)
{
    for (int level = 0; level < walk.levels; level++) {
        Pfn mfn = walk.pte_addr[level].pfn();
        if (mfn.raw() < pt_frame.size())
            pt_frame[mfn.raw()] = true;
    }
}

bool
AddressSpace::setAccessedDirty(PageWalk &walk, bool is_write)
{
    ptl_assert(walk.present);
    bool changed = false;
    for (int level = 0; level < 4; level++) {
        U64 pte = walk.pte[level];
        U64 want = pte | Pte::A;
        if (level == 3 && is_write)
            want |= Pte::D;
        if (want != pte) {
            mem->write(walk.pte_addr[level], want, 8);
            for (int l = 0; l < 4; l++) {
                if (walk.pte_addr[l] == walk.pte_addr[level])
                    walk.pte[l] = want;
            }
            changed = true;
        }
    }
    return changed;
}

}  // namespace ptl
