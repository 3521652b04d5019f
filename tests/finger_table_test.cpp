// Unit tests for the Chord finger table shared by the baseline and the
// t-network.
#include <gtest/gtest.h>

#include "chord/finger_table.hpp"
#include "common/rng.hpp"

namespace hp2p::chord {
namespace {

TEST(FingerTable, InitSetsPowerOfTwoStarts) {
  FingerTable t;
  t.init(PeerId{100});
  for (unsigned k = 0; k < FingerTable::size(); ++k) {
    EXPECT_EQ(t.start(k),
              ring::reduce(100 + (std::uint64_t{1} << k)));
    EXPECT_EQ(t.entry(k).node, kNoPeer);
  }
}

TEST(FingerTable, SetAndEvict) {
  FingerTable t;
  t.init(PeerId{0});
  t.set(3, PeerIndex{7}, PeerId{500});
  t.set(5, PeerIndex{7}, PeerId{500});
  t.set(6, PeerIndex{9}, PeerId{900});
  t.evict(PeerIndex{7});
  EXPECT_EQ(t.entry(3).node, kNoPeer);
  EXPECT_EQ(t.entry(5).node, kNoPeer);
  EXPECT_EQ(t.entry(6).node, PeerIndex{9});
}

TEST(FingerTable, SubstituteRewritesAllEntries) {
  FingerTable t;
  t.init(PeerId{0});
  t.set(1, PeerIndex{4}, PeerId{100});
  t.set(2, PeerIndex{4}, PeerId{100});
  t.substitute(PeerIndex{4}, PeerIndex{8}, PeerId{100});
  EXPECT_EQ(t.entry(1).node, PeerIndex{8});
  EXPECT_EQ(t.entry(2).node, PeerIndex{8});
  EXPECT_EQ(t.entry(1).node_id, PeerId{100});
}

TEST(FingerTable, ClosestPrecedingEmptyTableReturnsNoPeer) {
  FingerTable t;
  t.init(PeerId{10});
  EXPECT_EQ(t.closest_preceding(5000).node, kNoPeer);
}

TEST(FingerTable, ClosestPrecedingPicksFurthestBeforeTarget) {
  FingerTable t;
  t.init(PeerId{0});
  t.set(4, PeerIndex{1}, PeerId{20});     // 2^4 = 16 -> node at 20
  t.set(8, PeerIndex{2}, PeerId{300});    // 2^8 = 256 -> node at 300
  t.set(12, PeerIndex{3}, PeerId{5000});  // 2^12 -> node at 5000
  // Target 400: node 300 is the furthest finger strictly before it.
  EXPECT_EQ(t.closest_preceding(400).node, PeerIndex{2});
  // Target 21: only node 20 precedes it.
  EXPECT_EQ(t.closest_preceding(21).node, PeerIndex{1});
  // Target 10: no finger lies in (0, 10).
  EXPECT_EQ(t.closest_preceding(10).node, kNoPeer);
}

TEST(FingerTable, ClosestPrecedingWrapsRing) {
  FingerTable t;
  const PeerId own{kRingSize - 100};
  t.init(own);
  t.set(4, PeerIndex{1}, PeerId{kRingSize - 50});
  t.set(8, PeerIndex{2}, PeerId{40});
  // Target 60 (past zero): node at 40 precedes it on the wrapped arc.
  EXPECT_EQ(t.closest_preceding(60).node, PeerIndex{2});
  // Target kRingSize-40: only the finger at kRingSize-50 lies in
  // (kRingSize-100, kRingSize-40).
  EXPECT_EQ(t.closest_preceding(kRingSize - 40).node, PeerIndex{1});
  // Target kRingSize-60: no finger lies in the short arc before it.
  EXPECT_EQ(t.closest_preceding(kRingSize - 60).node, kNoPeer);
}

TEST(FingerTable, ClosestPrecedingNeverReturnsNodeAtOrPastTarget) {
  // Property over random tables: the returned node id always lies strictly
  // inside (own, target).
  Rng rng{13};
  for (int trial = 0; trial < 200; ++trial) {
    FingerTable t;
    const PeerId own{rng.uniform(0, kRingSize - 1)};
    t.init(own);
    for (unsigned k = 0; k < FingerTable::size(); k += 2) {
      t.set(k, PeerIndex{k}, PeerId{rng.uniform(0, kRingSize - 1)});
    }
    const std::uint64_t target = rng.uniform(0, kRingSize - 1);
    const Finger f = t.closest_preceding(target);
    if (f.node != kNoPeer) {
      EXPECT_TRUE(ring::in_arc_open_open(f.node_id.value(), own.value(),
                                         target));
    }
  }
}

}  // namespace
}  // namespace hp2p::chord
