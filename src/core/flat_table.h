/**
 * @file
 * Open-addressing hash table from a packed uint64 key to a small value
 * type — the flat replacement for the node-based
 * `std::unordered_map<uint64_t, V>` memos on the simulator's hot paths
 * (the serving engine's step-cost memo, the PIM kernel-shape cache).
 *
 * Design constraints, in order:
 *  - Exactness: a lookup either misses or returns the value stored for
 *    that exact key (full keys are stored; collisions only lengthen the
 *    probe chain). Memoization through this table is therefore
 *    bit-identical to recomputation, which the scenario layer's
 *    byte-determinism guarantee depends on.
 *  - Lookup speed: power-of-two capacity, a strong 64-bit finalizer for
 *    the hash, linear probing, and keys in one contiguous array keep a
 *    hit to ~one cache line, versus the pointer chase of the node-based
 *    map.
 *  - Simplicity: no erase (memos only grow), load factor capped at 1/2,
 *    key 0 reserved as the empty sentinel (every packed memo key in the
 *    tree is nonzero by construction — callers assert it).
 */

#ifndef PIMBA_CORE_FLAT_TABLE_H
#define PIMBA_CORE_FLAT_TABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pimba {

/** Finalizer of splitmix64: a fast, well-mixed 64-bit hash. */
constexpr uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Insert-only open-addressing map from nonzero uint64 keys to V. */
template <typename V> class FlatTable
{
  public:
    /** @p capacity_hint is rounded up to a power of two >= 16. */
    explicit FlatTable(size_t capacity_hint = 64)
    {
        size_t cap = 16;
        while (cap < capacity_hint * 2)
            cap *= 2;
        keys.assign(cap, kEmpty);
        vals.resize(cap);
    }

    /** Pointer to the value stored under @p key, or nullptr. */
    const V *
    find(uint64_t key) const
    {
        size_t mask = keys.size() - 1;
        for (size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            if (keys[i] == key)
                return &vals[i];
            if (keys[i] == kEmpty)
                return nullptr;
        }
    }

    /**
     * Store @p value under @p key (nonzero, not already present) and
     * return a reference to the stored copy.
     */
    const V &
    insert(uint64_t key, V value)
    {
        if ((count + 1) * 2 > keys.size())
            grow();
        size_t mask = keys.size() - 1;
        size_t i = mix64(key) & mask;
        while (keys[i] != kEmpty)
            i = (i + 1) & mask;
        keys[i] = key;
        vals[i] = std::move(value);
        ++count;
        return vals[i];
    }

    size_t size() const { return count; }
    size_t capacity() const { return keys.size(); }

  private:
    static constexpr uint64_t kEmpty = 0;

    void
    grow()
    {
        std::vector<uint64_t> old_keys = std::move(keys);
        std::vector<V> old_vals = std::move(vals);
        keys.assign(old_keys.size() * 2, kEmpty);
        vals.assign(old_keys.size() * 2, V{});
        size_t mask = keys.size() - 1;
        for (size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmpty)
                continue;
            size_t j = mix64(old_keys[i]) & mask;
            while (keys[j] != kEmpty)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            vals[j] = std::move(old_vals[i]);
        }
    }

    std::vector<uint64_t> keys;
    std::vector<V> vals;
    size_t count = 0;
};

} // namespace pimba

#endif // PIMBA_CORE_FLAT_TABLE_H
