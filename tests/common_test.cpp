// Unit tests for the common module: ids, ring arithmetic, hashing, RNG,
// the recycling RefPool, the allocation counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <new>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/flat_u32_set.hpp"
#include "common/hashing.hpp"
#include "common/ids.hpp"
#include "common/ref_pool.hpp"
#include "common/ring_math.hpp"
#include "common/rng.hpp"

namespace hp2p {
namespace {

TEST(Ids, StrongTypesCompare) {
  const PeerId a{5};
  const PeerId b{9};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, PeerId{5});
  EXPECT_NE(a, b);
}

TEST(Ids, HashableInUnorderedSet) {
  std::unordered_set<PeerId> set;
  set.insert(PeerId{1});
  set.insert(PeerId{1});
  set.insert(PeerId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(RingMath, ReduceWraps) {
  EXPECT_EQ(ring::reduce(kRingSize), 0u);
  EXPECT_EQ(ring::reduce(kRingSize + 7), 7u);
  EXPECT_EQ(ring::reduce(kRingSize - 1), kRingSize - 1);
}

TEST(RingMath, ArcOpenClosedBasic) {
  EXPECT_TRUE(ring::in_arc_open_closed(5, 2, 8));
  EXPECT_TRUE(ring::in_arc_open_closed(8, 2, 8));  // closed at b
  EXPECT_FALSE(ring::in_arc_open_closed(2, 2, 8));  // open at a
  EXPECT_FALSE(ring::in_arc_open_closed(9, 2, 8));
}

TEST(RingMath, ArcOpenClosedWrapping) {
  // Arc from near the top of the space back around through zero.
  const std::uint64_t a = kRingSize - 10;
  EXPECT_TRUE(ring::in_arc_open_closed(kRingSize - 5, a, 5));
  EXPECT_TRUE(ring::in_arc_open_closed(0, a, 5));
  EXPECT_TRUE(ring::in_arc_open_closed(5, a, 5));
  EXPECT_FALSE(ring::in_arc_open_closed(6, a, 5));
  EXPECT_FALSE(ring::in_arc_open_closed(a, a, 5));
}

TEST(RingMath, SingleNodeRingOwnsEverything) {
  EXPECT_TRUE(ring::in_arc_open_closed(123, 42, 42));
  EXPECT_TRUE(ring::in_arc_open_closed(42, 42, 42));
}

TEST(RingMath, OpenOpenExcludesEndpoints) {
  EXPECT_TRUE(ring::in_arc_open_open(5, 2, 8));
  EXPECT_FALSE(ring::in_arc_open_open(8, 2, 8));
  EXPECT_FALSE(ring::in_arc_open_open(2, 2, 8));
  // wrap
  EXPECT_TRUE(ring::in_arc_open_open(1, kRingSize - 2, 3));
}

TEST(RingMath, DistanceCw) {
  EXPECT_EQ(ring::distance_cw(10, 15), 5u);
  EXPECT_EQ(ring::distance_cw(15, 10), kRingSize - 5);
  EXPECT_EQ(ring::distance_cw(7, 7), 0u);
}

TEST(RingMath, MidpointCwHalvesTheArc) {
  EXPECT_EQ(ring::midpoint_cw(10, 20), 15u);
  // Wrapping arc: from kRingSize-4 to 4 spans 8; midpoint lands at 0.
  EXPECT_EQ(ring::midpoint_cw(kRingSize - 4, 4), 0u);
}

TEST(RingMath, MidpointLiesInsideArc) {
  Rng rng{99};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.uniform(0, kRingSize - 1);
    const std::uint64_t b = rng.uniform(0, kRingSize - 1);
    if (ring::distance_cw(a, b) < 2) continue;  // no interior point
    const std::uint64_t m = ring::midpoint_cw(a, b);
    EXPECT_TRUE(ring::in_arc_open_open(m, a, b) || m == a)
        << "a=" << a << " b=" << b << " m=" << m;
  }
}

TEST(RingMath, FingerStartPowersOfTwo) {
  EXPECT_EQ(ring::finger_start(0, 0), 1u);
  EXPECT_EQ(ring::finger_start(0, 5), 32u);
  EXPECT_EQ(ring::finger_start(kRingSize - 1, 0), 0u);
}

TEST(RingMath, OwnershipMatchesArc) {
  const PeerId owner{100};
  const PeerId pred{50};
  EXPECT_TRUE(ring::owns(owner, pred, DataId{100}));
  EXPECT_TRUE(ring::owns(owner, pred, DataId{51}));
  EXPECT_FALSE(ring::owns(owner, pred, DataId{50}));
  EXPECT_FALSE(ring::owns(owner, pred, DataId{101}));
}

TEST(Hashing, Fnv1aKnownValues) {
  // FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hashing, KeysStayInRingSpace) {
  for (const char* key : {"file.txt", "movie.mkv", "", "x", "longer key 123"}) {
    EXPECT_LT(hash_key(key).value(), kRingSize);
  }
}

TEST(Hashing, DistinctKeysRarelyCollide) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.insert(hash_key("key-" + std::to_string(i)).value());
  }
  EXPECT_GE(ids.size(), 9995u);  // 32-bit space, 10k keys: ~0 collisions
}

TEST(Hashing, SequentialKeysSpreadAcrossRing) {
  // Avalanche check: adjacent keys should not cluster in one ring quadrant.
  std::vector<int> quadrant(4, 0);
  for (int i = 0; i < 4000; ++i) {
    const auto id = hash_key("item" + std::to_string(i)).value();
    ++quadrant[id / (kRingSize / 4)];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_GT(quadrant[q], 800) << "quadrant " << q;
    EXPECT_LT(quadrant[q], 1200) << "quadrant " << q;
  }
}

TEST(Rng, Deterministic) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkDecorrelates) {
  Rng base{7};
  Rng c1 = base.fork(1);
  Rng c2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng{4};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng{5};
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{6};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{7};
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng{8};
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{9};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, IndexIsUniformish) {
  Rng rng{10};
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 25000; ++i) ++counts[rng.index(5)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 400);
}

// --- RefPool -------------------------------------------------------------------

struct Record {
  int tag = 0;
  std::vector<int> hops;
  void clear() {
    tag = 0;
    hops.clear();
  }
};

TEST(RefPool, ReleasedRecordIsClearedAndReused) {
  RefPool<Record> pool;
  const Record* first = nullptr;
  {
    auto r = pool.acquire();
    r->tag = 7;
    r->hops.assign(100, 1);
    first = &*r;
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  auto again = pool.acquire();
  EXPECT_EQ(&*again, first) << "the free list must hand the record back";
  EXPECT_EQ(again->tag, 0);
  EXPECT_TRUE(again->hops.empty());
  EXPECT_GE(again->hops.capacity(), 100u) << "clear() keeps the capacity";
}

TEST(RefPool, CopiesShareOneRecordUntilTheLastGoes) {
  RefPool<Record> pool;
  auto a = pool.acquire();
  const Record* shared = &*a;
  a->tag = 3;
  {
    auto b = a;             // copy: second owner
    auto c = std::move(b);  // move: still two owners
    EXPECT_FALSE(b);        // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c->tag, 3);
    a = RefPool<Record>::Ref{};  // the first owner lets go
    EXPECT_EQ(pool.live(), 1u);
  }
  EXPECT_EQ(pool.live(), 0u);
  auto d = pool.acquire();
  auto e = pool.acquire();
  EXPECT_EQ(&*d, shared) << "released only when the last copy went";
  EXPECT_NE(&*e, shared);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(RefPool, HandlesMayOutliveThePool) {
  // Message closures in the event queue are destroyed after the protocol
  // object that owns the pool; their handles must stay valid until then.
  auto pool = std::make_unique<RefPool<Record>>();
  auto survivor = pool->acquire();
  survivor->hops.assign(64, 2);
  auto spare = pool->acquire();
  spare = RefPool<Record>::Ref{};  // back on the free list before teardown
  pool.reset();
  ASSERT_TRUE(survivor);
  EXPECT_EQ(survivor->hops.size(), 64u);
  auto copy = survivor;
  survivor = RefPool<Record>::Ref{};
  EXPECT_EQ(copy->hops[63], 2);  // the last handle frees it on scope exit
}

// --- FlatU32Set -----------------------------------------------------------------

TEST(FlatU32Set, InsertReportsOnlyTheFirstOfEachKey) {
  FlatU32Set set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.insert(5));
}

TEST(FlatU32Set, OneArrayUntilHalfFullAndClearKeepsIt) {
  // An empty set holds nothing; the first insert takes the one array,
  // which holds kFirstCapacity / 2 keys.  Clearing keeps that array.
  const std::uint64_t before = alloc_stats::allocation_count();
  FlatU32Set set;
  EXPECT_EQ(alloc_stats::allocation_count(), before);
  constexpr std::uint32_t kFit = FlatU32Set::kFirstCapacity / 2;
  for (std::uint32_t k = 0; k < kFit; ++k) EXPECT_TRUE(set.insert(k * 7));
  EXPECT_EQ(alloc_stats::allocation_count(), before + 1);
  set.clear();
  for (std::uint32_t k = 0; k < kFit; ++k) {
    EXPECT_TRUE(set.insert(k * 7)) << "clear() must forget key " << k * 7;
  }
  EXPECT_EQ(alloc_stats::allocation_count(), before + 1)
      << "refilling a cleared set must reuse its array";
  EXPECT_TRUE(set.insert(kFit * 7));  // one past half full: a doubling
  EXPECT_EQ(alloc_stats::allocation_count(), before + 2);
}

TEST(FlatU32Set, GrowsPastItsFirstCapacityKeepingEveryKey) {
  // Agrees with std::set on a seeded stream with repeats, across several
  // doublings, up to the largest key (kNoPeer - 1).
  FlatU32Set set;
  std::set<std::uint32_t> reference;
  Rng rng{11};
  const std::uint32_t top = kNoPeer.value() - 1;
  for (int i = 0; i < 5000; ++i) {
    std::uint32_t key = static_cast<std::uint32_t>(rng.index(3000));
    if (i % 3 == 0) key = top - key;  // keys near the top of the range
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << "key " << key;
  }
  ASSERT_GT(reference.size(), 16 * FlatU32Set::kFirstCapacity);
  for (const std::uint32_t key : reference) EXPECT_FALSE(set.insert(key));
  EXPECT_TRUE(set.insert(top - 4000));
  EXPECT_FALSE(set.insert(top));
}

TEST(AllocStats, NothrowNewIsCountedAndFreed) {
  // std::stable_sort's buffer comes from nothrow new: it must be counted by
  // the same shim whose delete frees it.
  const std::uint64_t allocs = alloc_stats::allocation_count();
  const std::uint64_t live = alloc_stats::live_bytes();
  int* volatile block = new (std::nothrow) int[64];
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(alloc_stats::allocation_count(), allocs + 1);
  EXPECT_GT(alloc_stats::live_bytes(), live);
  delete[] block;
  EXPECT_EQ(alloc_stats::live_bytes(), live);
}

}  // namespace
}  // namespace hp2p
