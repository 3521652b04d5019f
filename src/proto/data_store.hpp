// Per-peer data store for (key, value) items.
//
// A data item is the paper's (key, value) pair: the key hashes to a d_id and
// the value is modeled as an opaque token (we account for its wire size, not
// its contents).  All three overlays use this store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "common/ids.hpp"
#include "common/ring_math.hpp"

namespace hp2p::proto {

/// One stored data item.
struct DataItem {
  DataId id;                 // hash of key
  std::string key;           // label/name (e.g. file name)
  std::uint64_t value = 0;   // opaque content token
  PeerIndex origin = kNoPeer;  // peer that generated the item
  /// Replication tag: true for a non-primary copy held purely for
  /// durability.  Replica copies answer lookups like any other item but are
  /// exempt from re-homing (a replica legitimately lives away from the copy
  /// that owns its placement).
  bool replica = false;
};

/// Id-indexed store: one vector of items sorted by d_id; lookup by d_id is
/// a binary search, O(log n).  Distinct keys colliding on the same d_id are
/// all kept (chained), matching hash-table semantics, in insertion order
/// among themselves.  for_each()/extract_*() enumerate in that order (by
/// d_id, then by insertion) -- their output feeds keyword results and load
/// transfers on the sim path, where unordered iteration would leak the
/// allocator's layout into runs.  A peer holds a handful of items, so an
/// insert's shift is cheaper than a node-based map's allocation, and an
/// empty store is one null vector.
class DataStore {
 public:
  void insert(DataItem item) {
    items_.insert(std::upper_bound(items_.begin(), items_.end(), item.id,
                                   [](DataId id, const DataItem& x) {
                                     return id < x.id;
                                   }),
                  std::move(item));
  }

  /// First item with this d_id, if any (exact-match lookup semantics).
  [[nodiscard]] const DataItem* find(DataId id) const {
    const std::size_t i = first_of(id);
    return i < items_.size() && items_[i].id == id ? &items_[i] : nullptr;
  }

  /// Item with this exact key, if any.
  [[nodiscard]] const DataItem* find_key(DataId id,
                                         const std::string& key) const {
    const std::size_t i = find_key_at(id, key);
    return i < items_.size() ? &items_[i] : nullptr;
  }

  [[nodiscard]] bool contains(DataId id) const { return find(id) != nullptr; }

  /// Idempotent insert used on the replication paths: a copy that matches an
  /// existing (id, key) pair upgrades the stored item's primary-ness instead
  /// of chaining a duplicate (primary wins over replica).  Returns true iff
  /// the item was actually added.
  bool merge(DataItem item) {
    if (const std::size_t i = find_key_at(item.id, item.key);
        i < items_.size()) {
      items_[i].replica = items_[i].replica && item.replica;
      return false;
    }
    insert(std::move(item));
    return true;
  }

  /// Sets `out` to the sorted distinct ids held in the ring arc (from, to],
  /// the anti-entropy digest, reusing its capacity.
  void ids_in_arc(PeerId from, PeerId to, std::vector<DataId>& out) const {
    out.clear();
    for (const DataItem& item : items_) {
      if (!out.empty() && out.back() == item.id) continue;
      if (ring::in_arc_open_closed(item.id.value(), from.value(),
                                   to.value())) {
        out.push_back(item.id);
      }
    }
  }

  /// Removes and returns all items with d_id in the half-open ring arc
  /// (from, to]; the paper's load-transfer primitive.  Compacts in place:
  /// an arc that matches nothing allocates nothing and moves nothing.
  [[nodiscard]] std::vector<DataItem> extract_arc(PeerId from, PeerId to);

  /// Removes and returns everything (the paper's loaddump()).
  [[nodiscard]] std::vector<DataItem> extract_all() {
    return std::exchange(items_, {});
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// Iterates items (read-only).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const DataItem& item : items_) fn(item);
  }

 private:
  /// Index of the first item with d_id >= `id`.
  [[nodiscard]] std::size_t first_of(DataId id) const {
    return static_cast<std::size_t>(
        std::lower_bound(items_.begin(), items_.end(), id,
                         [](const DataItem& x, DataId key) {
                           return x.id < key;
                         }) -
        items_.begin());
  }
  /// Index of the item with this exact (id, key), or size() if none.
  [[nodiscard]] std::size_t find_key_at(DataId id,
                                        const std::string& key) const {
    for (std::size_t i = first_of(id); i < items_.size() && items_[i].id == id;
         ++i) {
      if (items_[i].key == key) return i;
    }
    return items_.size();
  }

  std::vector<DataItem> items_;  // sorted by id; equal ids in insertion order
};

inline std::vector<DataItem> DataStore::extract_arc(PeerId from, PeerId to) {
  std::vector<DataItem> out;
  auto keep = items_.begin();
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (ring::in_arc_open_closed(it->id.value(), from.value(), to.value())) {
      out.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  items_.erase(keep, items_.end());
  return out;
}

}  // namespace hp2p::proto
