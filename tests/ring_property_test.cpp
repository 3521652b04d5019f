// Property-style tests for the ring arithmetic and segment ownership:
// randomized wraparound intervals checked against first-principles
// definitions, and successor/ownership agreement between the chord finger
// table, the hybrid registry, and a sorted-vector reference.  Every case
// prints its seed and operands so a failure is a one-line reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chord/finger_table.hpp"
#include "common/ring_math.hpp"
#include "common/rng.hpp"
#include "hybrid/hybrid_system.hpp"
#include "tests/test_util.hpp"

namespace hp2p {
namespace {

constexpr std::uint64_t kSeed = 20260805;
constexpr int kCases = 2000;

std::uint64_t ring_point(Rng& rng) { return rng.uniform(0, kRingSize - 1); }

TEST(RingProperty, ArcPredicatesPartitionTheRing) {
  Rng rng(kSeed);
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t a = ring_point(rng);
    const std::uint64_t b = ring_point(rng);
    const std::uint64_t x = ring_point(rng);
    SCOPED_TRACE("seed=" + std::to_string(kSeed) + " case=" +
                 std::to_string(c) + " a=" + std::to_string(a) + " b=" +
                 std::to_string(b) + " x=" + std::to_string(x));
    if (a != b) {
      // (a, b] and (b, a] partition the whole ring.
      EXPECT_NE(ring::in_arc_open_closed(x, a, b),
                ring::in_arc_open_closed(x, b, a));
      if (x != a && x != b) {
        // Likewise (a, b) and (b, a) partition the ring minus endpoints.
        EXPECT_NE(ring::in_arc_open_open(x, a, b),
                  ring::in_arc_open_open(x, b, a));
      }
      // The open arc is the half-open arc minus its closed endpoint.
      EXPECT_EQ(ring::in_arc_open_open(x, a, b),
                ring::in_arc_open_closed(x, a, b) && x != b);
    }
    // Endpoints: `a` is never inside either arc from a.
    EXPECT_FALSE(ring::in_arc_open_closed(a, a, b) && a != b);
    EXPECT_FALSE(ring::in_arc_open_open(a, a, b));
  }
}

TEST(RingProperty, DistanceAndMidpointAreConsistent) {
  Rng rng(kSeed + 1);
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t a = ring_point(rng);
    const std::uint64_t b = ring_point(rng);
    SCOPED_TRACE("case=" + std::to_string(c) + " a=" + std::to_string(a) +
                 " b=" + std::to_string(b));
    if (a != b) {
      // Walking a->b then b->a goes exactly once around.
      EXPECT_EQ(ring::distance_cw(a, b) + ring::distance_cw(b, a),
                kRingSize);
    }
    const std::uint64_t mid = ring::midpoint_cw(a, b);
    // The midpoint bisects the clockwise arc (within integer truncation).
    EXPECT_EQ(ring::distance_cw(a, mid),
              (a == b ? kRingSize : ring::distance_cw(a, b)) / 2);
    if (a != b && ring::distance_cw(a, b) > 1) {
      EXPECT_TRUE(ring::in_arc_open_open(mid, a, b) || mid == a);
    }
  }
}

TEST(RingProperty, FingerStartsWrapAndOrder) {
  Rng rng(kSeed + 2);
  for (int c = 0; c < 500; ++c) {
    const std::uint64_t a = ring_point(rng);
    for (unsigned k = 0; k < kRingBits; ++k) {
      SCOPED_TRACE("case=" + std::to_string(c) + " a=" + std::to_string(a) +
                   " k=" + std::to_string(k));
      // start(k) is exactly 2^k past a.
      EXPECT_EQ(ring::distance_cw(a, ring::finger_start(a, k)),
                std::uint64_t{1} << k);
    }
  }
}

TEST(RingProperty, ClosestPrecedingMatchesBruteForce) {
  Rng rng(kSeed + 3);
  for (int c = 0; c < 200; ++c) {
    const std::uint64_t own = ring_point(rng);
    chord::FingerTable table;
    table.init(PeerId{own});
    // Populate a random subset of slots with random nodes.
    for (unsigned k = 0; k < kRingBits; ++k) {
      if (!rng.chance(0.4)) continue;
      table.set(k, PeerIndex{static_cast<std::uint32_t>(k + 1)},
                PeerId{ring_point(rng)});
    }
    for (int t = 0; t < 20; ++t) {
      const std::uint64_t target = ring_point(rng);
      SCOPED_TRACE("case=" + std::to_string(c) + " own=" +
                   std::to_string(own) + " target=" + std::to_string(target));
      const auto got = table.closest_preceding(target);
      // Brute force from the definition: the highest slot whose node id
      // lies strictly inside (own, target).
      chord::Finger expect;
      for (unsigned k = kRingBits; k-- > 0;) {
        const auto& f = table.entry(k);
        if (f.node == kNoPeer) continue;
        if (ring::in_arc_open_open(f.node_id.value(), own, target)) {
          expect = f;
          break;
        }
      }
      EXPECT_EQ(got.node, expect.node);
      EXPECT_EQ(got.node_id, expect.node_id);
    }
  }
}

TEST(RingProperty, HybridOwnershipAgreesWithSortedReference) {
  hybrid::HybridParams params;
  params.ps = 0.0;  // pure t-network: every peer owns a segment
  testing::SimWorld world(kSeed + 4, 120);
  hybrid::HybridSystem system(world.network, params, HostIndex{0},
                              world.rng);
  std::vector<PeerIndex> peers;
  for (int i = 0; i < 24; ++i) {
    world.sim.schedule_after(
        sim::SimTime::millis(40 * (i + 1)), [&] {
          peers.push_back(system.add_peer_with_role(world.next_host(),
                                                    hybrid::Role::kTPeer));
        });
  }
  world.sim.run();

  std::vector<std::uint64_t> pids;
  for (const PeerIndex p : peers) {
    ASSERT_TRUE(system.is_joined(p));
    pids.push_back(system.pid_of(p).value());
  }
  std::sort(pids.begin(), pids.end());

  Rng rng(kSeed + 5);
  for (int c = 0; c < 500; ++c) {
    const std::uint64_t id = ring_point(rng);
    SCOPED_TRACE("case=" + std::to_string(c) + " id=" + std::to_string(id));
    const PeerIndex owner = system.owner_tpeer(DataId{id});
    ASSERT_NE(owner, kNoPeer);
    // The owner's segment (pred, pid] contains the id.
    const auto [lo, hi] = system.segment_of(owner);
    EXPECT_TRUE(ring::in_arc_open_closed(id, lo.value(), hi.value()));
    // Exactly one t-peer claims it.
    int claimants = 0;
    for (const PeerIndex p : peers) {
      const auto [plo, phi] = system.segment_of(p);
      claimants += ring::in_arc_open_closed(id, plo.value(), phi.value());
    }
    EXPECT_EQ(claimants, 1);
    // Sorted-vector reference: owner pid is the first pid >= id (wrapping).
    const auto it = std::lower_bound(pids.begin(), pids.end(), id);
    const std::uint64_t expect_pid = it == pids.end() ? pids.front() : *it;
    EXPECT_EQ(system.pid_of(owner).value(), expect_pid);
  }
}

}  // namespace
}  // namespace hp2p
