/**
 * @file
 * A fixed-capacity ring of slots in program order: the storage shape
 * of the out-of-order core's ROB, LDQ, STQ and fetch queue.
 *
 * The ring stores two facts, the head slot and the live count; the
 * tail follows from them. Entries are addressed by slot index and keep
 * that index while they are live, so other structures name an entry by
 * its slot (an LSQ entry's ROB slot, a ROB entry's LSQ slot, an issue
 * queue slot's ROB slot). Liveness is position: a slot is live exactly
 * when its age from the head is below the count, so entries carry no
 * valid flag of their own.
 *
 *  - pushBack() hands out the tail slot without touching its contents;
 *    the caller overwrites the whole entry.
 *  - popFront() frees the oldest entry (commit), popBack() the youngest
 *    (squash, which rewinds allocation to that slot).
 *  - clear() empties the ring and restarts allocation at slot 0, so a
 *    flushed pipeline refills the same slots in the same order.
 *
 * Callers check for room before pushing and for an entry before
 * popping; the ring itself does not, since the ROB and LSQ cursors sit
 * on the core's hottest path. Cursor steps compare and wrap instead of
 * dividing.
 */

#ifndef PTLSIM_CORE_OOO_RING_H_
#define PTLSIM_CORE_OOO_RING_H_

#include <vector>

namespace ptl {

template <typename T>
class Ring
{
  public:
    /** Size the ring to `capacity` default slots, empty. */
    void
    resize(int capacity)
    {
        slots.assign((size_t)capacity, T{});
        head = count = 0;
    }

    int capacity() const { return (int)slots.size(); }
    int size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == capacity(); }

    T &operator[](int slot) { return slots[(size_t)slot]; }
    const T &operator[](int slot) const { return slots[(size_t)slot]; }

    /** The slot `age` entries behind the head (0 = oldest). */
    int slotAt(int age) const { return wrap(head + age); }
    int frontSlot() const { return head; }
    int backSlot() const { return slotAt(count - 1); }
    T &front() { return slots[(size_t)head]; }

    int next(int slot) const { return slot + 1 == capacity() ? 0 : slot + 1; }
    int prev(int slot) const { return slot == 0 ? capacity() - 1 : slot - 1; }
    /** Distance of `slot` from the head; size() or more when free. */
    int
    age(int slot) const
    {
        return slot >= head ? slot - head : slot - head + capacity();
    }
    /** True when `slot` names a live entry. */
    bool
    live(int slot) const
    {
        return slot >= 0 && slot < capacity() && age(slot) < count;
    }

    /** Claim the tail slot and return its index. */
    int
    pushBack()
    {
        int slot = slotAt(count);
        count++;
        return slot;
    }
    void
    popFront()
    {
        head = next(head);
        count--;
    }
    void popBack() { count--; }
    void clear() { head = count = 0; }

  private:
    int wrap(int i) const { return i >= capacity() ? i - capacity() : i; }

    std::vector<T> slots;
    int head = 0;
    int count = 0;
};

}  // namespace ptl

#endif  // PTLSIM_CORE_OOO_RING_H_
