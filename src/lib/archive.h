/**
 * @file
 * One symmetric checkpoint archive over a flat word image.
 *
 * A checkpointed class writes a single `void visit(Archive &ar)` that
 * names each piece of its state once; the same body saves it (into a
 * std::vector<U64>) and loads it back. Because one walk serves both
 * directions, the save and load sides cannot drift apart in order,
 * width or repetition, the way a hand-written serialize/restore pair
 * can.
 *
 * What an archive carries, in call order:
 *  - tag(): a model tag, checked on load so an image written by
 *    another model (or another layout version) is rejected;
 *  - ar(x, y, ...): 8-byte trivially copyable values (U64, SimCycle,
 *    GuestPhys, ...) through std::bit_cast; narrower integral, bool
 *    and enum values one to a word; arrays of these element-wise;
 *  - size(): a container size fixed by the configuration, recorded on
 *    save and checked on load (bank counts, cache geometry);
 *  - length(): the length of a variable-length std::vector or
 *    std::deque, which the load side resizes to before the caller
 *    visits the elements;
 *  - bytes(): a byte buffer's length, then its bytes eight to a word;
 *    a fixed-length std::span<U8> carries only the bytes.
 *
 * Loading malformed input ends in fatal(): a truncated image, trailing
 * words, a wrong tag, a size mismatch, a word that does not fit its
 * narrow type, or a length longer than the words left.
 */

#ifndef PTLSIM_LIB_ARCHIVE_H_
#define PTLSIM_LIB_ARCHIVE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "lib/bitops.h"
#include "lib/logging.h"

namespace ptl {

/** Saves to, or loads from, a flat word image through the same calls. */
class Archive
{
  public:
    /** The word image of `obj`, which has `void visit(Archive &)`. */
    template <typename T>
    static std::vector<U64>
    save(T &obj)
    {
        Archive ar(nullptr);
        obj.visit(ar);
        return std::move(ar.out);
    }

    /** Load `obj` from `words`; fatal() unless they are consumed exactly. */
    template <typename T>
    static void
    load(T &obj, const std::vector<U64> &words)
    {
        Archive ar(&words);
        obj.visit(ar);
        if (ar.pos != words.size())
            fatal("checkpoint: %zu trailing words after %zu",
                  words.size() - ar.pos, ar.pos);
    }

    /** Model tag: written on save, must match on load. */
    void
    tag(U64 model)
    {
        U64 v = model;
        word(v);
        if (v != model)
            fatal("checkpoint: model tag %#llx, expected %#llx",
                  (unsigned long long)v, (unsigned long long)model);
    }

    /** Configuration-fixed size: recorded on save, checked on load. */
    void
    size(size_t n)
    {
        U64 v = n;
        word(v);
        if (v != n)
            fatal("checkpoint: recorded size %llu, configured %zu",
                  (unsigned long long)v, n);
    }

    /**
     * Variable-length container: records its length on save; on load
     * resizes `c` to the recorded length. Every element must carry at
     * least one word, so a corrupt length cannot allocate past the
     * image.
     */
    template <typename C>
    void
    length(C &c)
    {
        U64 n = c.size();
        word(n);
        if (!in)
            return;
        if (n > in->size() - pos)
            fatal("checkpoint: length %llu exceeds the %zu words left",
                  (unsigned long long)n, in->size() - pos);
        c.resize((size_t)n);
    }

    /** Byte buffer (std::vector or std::deque of U8): its length, then
     *  its bytes eight to a word; load resizes `c` to the length. */
    template <typename C>
    void
    bytes(C &c)
    {
        U64 n = c.size();
        word(n);
        if (in && n / 8 + (n % 8 != 0) > in->size() - pos)
            fatal("checkpoint: %llu bytes exceed the %zu words left",
                  (unsigned long long)n, in->size() - pos);
        c.resize((size_t)n);
        packed(c);
    }

    /** Fixed-length byte span: its bytes eight to a word, no length. */
    void bytes(std::span<U8> s) { packed(s); }

    /** True on the load side. For owners whose image is not a plain
     *  walk of their members (a sparse memory image, say). */
    bool loading() const { return in != nullptr; }

    /** Values in call order: 8-byte trivially copyable, a narrower
     *  integral, bool or enum value, or an array of these. */
    template <typename... Ts>
    void
    operator()(Ts &...vs)
    {
        (value(vs), ...);
    }

  private:
    explicit Archive(const std::vector<U64> *src) : in(src) {}

    void
    word(U64 &v)
    {
        if (!in) {
            out.push_back(v);
            return;
        }
        if (pos >= in->size())
            fatal("checkpoint: truncated after %zu words", pos);
        v = (*in)[pos++];
    }

    /** The bytes of `c` eight to a word; only load writes them. */
    template <typename C>
    void
    packed(C &c)
    {
        for (size_t i = 0; i < c.size(); i += 8) {
            const size_t k = std::min<size_t>(8, c.size() - i);
            U64 w = 0;
            if (!in) {
                for (size_t j = 0; j < k; j++)
                    w |= U64(c[i + j]) << (8 * j);
            }
            word(w);
            if (in) {
                for (size_t j = 0; j < k; j++)
                    c[i + j] = static_cast<U8>(w >> (8 * j));
            }
        }
    }

    template <typename T>
    void
    value(T &x)
    {
        if constexpr (std::is_array_v<T>) {
            for (auto &e : x)
                value(e);
        } else if constexpr (std::is_enum_v<T>) {
            auto u = static_cast<std::underlying_type_t<T>>(x);
            value(u);
            x = static_cast<T>(u);
        } else if constexpr (std::is_integral_v<T> && sizeof(T) < 8) {
            // Widen through the type's own signedness (a bool to 0/1):
            // a loaded word fits when it narrows back unchanged.
            std::conditional_t<std::is_signed_v<T>, S64, U64> w = x;
            value(w);
            if (static_cast<decltype(w)>(static_cast<T>(w)) != w)
                fatal("checkpoint: word %#llx at %zu does not fit a "
                      "%zu-byte value", (unsigned long long)w, pos - 1,
                      sizeof(T));
            x = static_cast<T>(w);
        } else {
            static_assert(sizeof(T) == sizeof(U64)
                              && std::is_trivially_copyable_v<T>,
                          "archive values are 8-byte trivially copyable");
            U64 v = std::bit_cast<U64>(x);
            word(v);
            x = std::bit_cast<T>(v);
        }
    }

    const std::vector<U64> *in;  ///< load source; null when saving
    size_t pos = 0;              ///< next word to load
    std::vector<U64> out;        ///< save image
};

}  // namespace ptl

#endif  // PTLSIM_LIB_ARCHIVE_H_
