// Unit tests for the shared per-peer data store.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/rng.hpp"
#include "proto/data_store.hpp"

namespace hp2p::proto {
namespace {

DataItem make(const std::string& key, std::uint64_t value = 0) {
  return DataItem{hash_key(key), key, value, kNoPeer};
}

TEST(DataStore, InsertAndFind) {
  DataStore store;
  store.insert(make("a", 1));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.empty());
  const DataItem* item = store.find(hash_key("a"));
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->key, "a");
  EXPECT_EQ(item->value, 1u);
  EXPECT_EQ(store.find(hash_key("b")), nullptr);
}

TEST(DataStore, FindKeyDistinguishesChainedItems) {
  DataStore store;
  // Force two keys onto the same d_id by constructing items directly.
  DataItem x{DataId{7}, "x", 1, kNoPeer};
  DataItem y{DataId{7}, "y", 2, kNoPeer};
  store.insert(x);
  store.insert(y);
  EXPECT_EQ(store.size(), 2u);
  const DataItem* found = store.find_key(DataId{7}, "y");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, 2u);
  EXPECT_EQ(store.find_key(DataId{7}, "z"), nullptr);
  // Plain find returns the first of the chain.
  EXPECT_NE(store.find(DataId{7}), nullptr);
}

TEST(DataStore, ExtractArcMovesOnlyOwnedIds) {
  DataStore store;
  store.insert(DataItem{DataId{10}, "in1", 0, kNoPeer});
  store.insert(DataItem{DataId{20}, "in2", 0, kNoPeer});
  store.insert(DataItem{DataId{30}, "out", 0, kNoPeer});
  auto moved = store.extract_arc(PeerId{5}, PeerId{25});
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(DataId{30}), nullptr);
  EXPECT_EQ(store.find(DataId{10}), nullptr);
}

TEST(DataStore, ExtractArcWrapsAroundZero) {
  DataStore store;
  store.insert(DataItem{DataId{kRingSize - 2}, "high", 0, kNoPeer});
  store.insert(DataItem{DataId{3}, "low", 0, kNoPeer});
  store.insert(DataItem{DataId{kRingSize / 2}, "mid", 0, kNoPeer});
  auto moved = store.extract_arc(PeerId{kRingSize - 5}, PeerId{5});
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(DataId{kRingSize / 2}), nullptr);
}

TEST(DataStore, ExtractArcBoundarySemantics) {
  // (from, to]: excludes `from`, includes `to`.
  DataStore store;
  store.insert(DataItem{DataId{5}, "from", 0, kNoPeer});
  store.insert(DataItem{DataId{9}, "to", 0, kNoPeer});
  auto moved = store.extract_arc(PeerId{5}, PeerId{9});
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.front().key, "to");
}

TEST(DataStore, ExtractAllEmptiesStore) {
  DataStore store;
  for (int i = 0; i < 20; ++i) store.insert(make("k" + std::to_string(i)));
  auto all = store.extract_all();
  EXPECT_EQ(all.size(), 20u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
}

TEST(DataStore, ForEachVisitsEverything) {
  DataStore store;
  for (int i = 0; i < 15; ++i) {
    store.insert(make("k" + std::to_string(i), static_cast<std::uint64_t>(i)));
  }
  std::uint64_t sum = 0;
  std::size_t count = 0;
  store.for_each([&](const DataItem& item) {
    sum += item.value;
    ++count;
  });
  EXPECT_EQ(count, 15u);
  EXPECT_EQ(sum, 105u);
}

TEST(DataStore, ArcExtractionConservesItems) {
  // Property: splitting a store along random arcs never loses or
  // duplicates an item.
  Rng rng{77};
  for (int trial = 0; trial < 50; ++trial) {
    DataStore store;
    const std::size_t n = 100;
    for (std::size_t i = 0; i < n; ++i) {
      store.insert(
          DataItem{DataId{rng.uniform(0, kRingSize - 1)},
                   "item" + std::to_string(i), i, kNoPeer});
    }
    const PeerId a{rng.uniform(0, kRingSize - 1)};
    const PeerId b{rng.uniform(0, kRingSize - 1)};
    const auto moved = store.extract_arc(a, b);
    EXPECT_EQ(moved.size() + store.size(), n);
    for (const auto& item : moved) {
      EXPECT_TRUE(ring::in_arc_open_closed(item.id.value(), a.value(),
                                           b.value()));
    }
    store.for_each([&](const DataItem& item) {
      EXPECT_FALSE(ring::in_arc_open_closed(item.id.value(), a.value(),
                                            b.value()));
    });
  }
}

TEST(DataStore, MergeDedupsByIdAndKeyWithPrimaryWinning) {
  DataStore store;
  DataItem replica{DataId{7}, "k", 1, kNoPeer};
  replica.replica = true;
  EXPECT_TRUE(store.merge(replica));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.find(DataId{7})->replica);
  // Same (id, key) as a primary: no new item, but primary-ness upgrades.
  DataItem primary{DataId{7}, "k", 1, kNoPeer};
  EXPECT_FALSE(store.merge(primary));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.find(DataId{7})->replica);
  // A replica never downgrades an existing primary.
  EXPECT_FALSE(store.merge(replica));
  EXPECT_FALSE(store.find(DataId{7})->replica);
  // A colliding id with a distinct key still chains.
  EXPECT_TRUE(store.merge(DataItem{DataId{7}, "other", 2, kNoPeer}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(DataStore, ContainsAndIdsInArc) {
  DataStore store;
  store.insert(DataItem{DataId{10}, "a", 0, kNoPeer});
  store.insert(DataItem{DataId{900}, "b", 1, kNoPeer});
  store.insert(DataItem{DataId{kRingSize - 5}, "c", 2, kNoPeer});
  EXPECT_TRUE(store.contains(DataId{10}));
  EXPECT_FALSE(store.contains(DataId{11}));
  // Wrapping arc (kRingSize-10, 20]: catches both ends of the ring.
  const auto digest = store.ids_in_arc(PeerId{kRingSize - 10}, PeerId{20});
  ASSERT_EQ(digest.size(), 2u);
  EXPECT_EQ(digest[0].value(), 10u);  // sorted by id
  EXPECT_EQ(digest[1].value(), kRingSize - 5);
  EXPECT_TRUE(store.ids_in_arc(PeerId{30}, PeerId{40}).empty());
}

/// Keys in the order the store enumerates them.
std::vector<std::string> keys_of(const DataStore& store) {
  std::vector<std::string> keys;
  store.for_each([&](const DataItem& item) { keys.push_back(item.key); });
  return keys;
}
std::vector<std::string> keys_of(const std::vector<DataItem>& items) {
  std::vector<std::string> keys;
  for (const DataItem& item : items) keys.push_back(item.key);
  return keys;
}

TEST(DataStore, ChainedIdsKeepInsertionOrderEverywhere) {
  // Items enumerate by id, then in insertion order within an id, through
  // every reader and extractor.  The inserts interleave the ids.
  DataStore store;
  store.insert(DataItem{DataId{20}, "b1", 0, kNoPeer});
  store.insert(DataItem{DataId{10}, "a1", 0, kNoPeer});
  store.insert(DataItem{DataId{20}, "b2", 0, kNoPeer});
  store.insert(DataItem{DataId{30}, "c1", 0, kNoPeer});
  store.insert(DataItem{DataId{10}, "a2", 0, kNoPeer});
  store.insert(DataItem{DataId{20}, "b3", 0, kNoPeer});
  const std::vector<std::string> all{"a1", "a2", "b1", "b2", "b3", "c1"};
  EXPECT_EQ(keys_of(store), all);
  EXPECT_EQ(store.find(DataId{20})->key, "b1");
  EXPECT_FALSE(store.merge(DataItem{DataId{20}, "b2", 0, kNoPeer}));
  EXPECT_EQ(keys_of(store), all);
  EXPECT_EQ(store.ids_in_arc(PeerId{5}, PeerId{25}),
            (std::vector<DataId>{DataId{10}, DataId{20}}));

  // A wrapping arc takes the low ids, then the high ones, chains intact.
  const auto moved = store.extract_arc(PeerId{25}, PeerId{15});
  EXPECT_EQ(keys_of(moved), (std::vector<std::string>{"a1", "a2", "c1"}));
  EXPECT_EQ(keys_of(store), (std::vector<std::string>{"b1", "b2", "b3"}));
  store.insert(DataItem{DataId{20}, "b4", 0, kNoPeer});
  const auto rest = store.extract_all();
  EXPECT_EQ(keys_of(rest), (std::vector<std::string>{"b1", "b2", "b3", "b4"}));
  EXPECT_TRUE(store.empty());
}

TEST(DataStore, ExtractArcMatchingNothingAllocatesNothing) {
  // The settled heartbeat's re-home check extracts the foreign arc of a
  // store that holds none: it must neither allocate nor disturb the store.
  DataStore store;
  for (std::uint64_t id = 100; id < 110; ++id) {
    store.insert(DataItem{DataId{id}, "k" + std::to_string(id), 0, kNoPeer});
  }
  const std::vector<std::string> before = keys_of(store);
  const std::uint64_t allocs = alloc_stats::allocation_count();
  const auto moved = store.extract_arc(PeerId{200}, PeerId{50});
  EXPECT_EQ(alloc_stats::allocation_count(), allocs);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(keys_of(store), before);
}

}  // namespace
}  // namespace hp2p::proto
