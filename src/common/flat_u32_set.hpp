// Open-addressing set of 32-bit keys: one array, insert and clear only.
//
// Built for the per-query visited sets of TTL floods: a lookup's set holds
// the peers it has contacted and dies with the query.  std::unordered_set
// allocates one node per insert; this set allocates one array of slots,
// doubled whenever it would pass half full, and probes it linearly.  It is
// never iterated, so slot order (which depends on the hash) cannot leak
// into any result.  The all-ones key marks an empty slot, so keys range
// over [0, 2^32 - 2]: every PeerIndex but kNoPeer.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

namespace hp2p {

class FlatU32Set {
 public:
  /// The reserved key: it marks an empty slot.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  /// Slots of the first array: 32 keys fit before the first doubling.
  static constexpr std::uint32_t kFirstCapacity = 64;

  /// Adds `key`; true iff it was not in the set yet.
  bool insert(std::uint32_t key) {
    assert(key != kEmpty);
    if (capacity_ == 0) grow();
    std::uint32_t* slot = find_slot(key);
    if (*slot == key) return false;
    if (2 * (size_ + 1) > capacity_) {
      grow();
      slot = find_slot(key);
    }
    *slot = key;
    ++size_;
    return true;
  }

  /// Empties the set and keeps its array.
  void clear() {
    std::fill_n(slots_.get(), capacity_, kEmpty);
    size_ = 0;
  }

 private:
  /// The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::uint32_t* find_slot(std::uint32_t key) const {
    const std::uint32_t mask = capacity_ - 1;
    // Fibonacci hashing, folded so the low bits depend on every key bit.
    std::uint32_t h = key * 0x9E3779B9u;
    h ^= h >> 16;
    for (std::uint32_t i = h & mask;; i = (i + 1) & mask) {
      std::uint32_t* slot = &slots_[i];
      if (*slot == key || *slot == kEmpty) return slot;
    }
  }

  void grow() {
    const std::uint32_t old_capacity = capacity_;
    std::unique_ptr<std::uint32_t[]> old = std::move(slots_);
    capacity_ = old_capacity == 0 ? kFirstCapacity : 2 * old_capacity;
    slots_ = std::make_unique_for_overwrite<std::uint32_t[]>(capacity_);
    std::fill_n(slots_.get(), capacity_, kEmpty);
    for (std::uint32_t i = 0; i < old_capacity; ++i) {
      if (old[i] != kEmpty) *find_slot(old[i]) = old[i];
    }
  }

  std::unique_ptr<std::uint32_t[]> slots_;
  std::uint32_t capacity_ = 0;  // a power of two, or 0 before any insert
  std::uint32_t size_ = 0;
};

}  // namespace hp2p
