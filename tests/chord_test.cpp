// Tests for the Chord baseline: ring construction, routing, data placement,
// churn behaviour.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <vector>

#include "chord/chord.hpp"
#include "tests/test_util.hpp"

namespace hp2p::chord {
namespace {

using testing::SimWorld;

/// Builds an n-node ring by sequential joins; returns the node indices.
std::vector<PeerIndex> build_ring(SimWorld& world, ChordNetwork& chord,
                                  std::size_t n) {
  std::vector<PeerIndex> nodes;
  nodes.push_back(
      chord.create_ring(world.next_host(), PeerId{world.rng.uniform(0, kRingSize - 1)}));
  for (std::size_t i = 1; i < n; ++i) {
    const PeerIndex node = chord.register_node(
        world.next_host(), PeerId{world.rng.uniform(0, kRingSize - 1)});
    bool done = false;
    chord.join(node, nodes.front(), [&](proto::JoinResult) { done = true; });
    world.sim.run();
    EXPECT_TRUE(done) << "join " << i << " never completed";
    nodes.push_back(node);
  }
  return nodes;
}

TEST(Chord, SingleNodeRingOwnsAll) {
  SimWorld world{1};
  ChordNetwork chord{world.network, {}};
  const PeerIndex a = chord.create_ring(world.next_host(), PeerId{100});
  EXPECT_TRUE(chord.verify_ring(a, 1));
  bool found = false;
  chord.store(a, "k", 7, [&] { found = true; });
  world.sim.run();
  EXPECT_TRUE(found);
  EXPECT_EQ(chord.store_of(a).size(), 1u);
}

TEST(Chord, SequentialJoinsFormValidRing) {
  SimWorld world{2};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 32);
  EXPECT_TRUE(chord.verify_ring(nodes.front(), 32));
}

TEST(Chord, JoinLatencyPositiveAndHopsCounted) {
  SimWorld world{3};
  ChordNetwork chord{world.network, {}};
  const auto first =
      chord.create_ring(world.next_host(), PeerId{1});
  const PeerIndex n = chord.register_node(world.next_host(), PeerId{1u << 20});
  proto::JoinResult result;
  chord.join(n, first, [&](proto::JoinResult r) { result = r; });
  world.sim.run();
  EXPECT_GT(result.latency.as_micros(), 0);
  EXPECT_GE(result.request_hops, 1u);
}

TEST(Chord, IdConflictResolvedByMidpoint) {
  SimWorld world{4};
  ChordNetwork chord{world.network, {}};
  const PeerIndex a = chord.create_ring(world.next_host(), PeerId{1000});
  const PeerIndex b = chord.register_node(world.next_host(), PeerId{1000});
  chord.join(b, a, {});
  world.sim.run();
  EXPECT_NE(chord.view(b).id, chord.view(a).id);
  EXPECT_TRUE(chord.verify_ring(a, 2));
}

TEST(Chord, StoreRoutesToOwner) {
  SimWorld world{5};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 16);
  for (int i = 0; i < 64; ++i) {
    chord.store(nodes[static_cast<std::size_t>(i) % nodes.size()],
                "key-" + std::to_string(i), static_cast<std::uint64_t>(i));
  }
  world.sim.run();
  EXPECT_EQ(chord.total_items(), 64u);
  EXPECT_TRUE(chord.placement_consistent());
}

TEST(Chord, LookupFindsStoredData) {
  SimWorld world{6};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 16);
  for (int i = 0; i < 32; ++i) {
    chord.store(nodes.front(), "key-" + std::to_string(i),
                static_cast<std::uint64_t>(i));
  }
  world.sim.run();
  int successes = 0;
  for (int i = 0; i < 32; ++i) {
    chord.lookup(nodes[static_cast<std::size_t>(i) % nodes.size()],
                 "key-" + std::to_string(i), [&](proto::LookupResult r) {
                   successes += r.success;
                   EXPECT_TRUE(r.success);
                   EXPECT_GE(r.peers_contacted, 1u);
                 });
  }
  world.sim.run();
  EXPECT_EQ(successes, 32);
}

TEST(Chord, LookupMissingKeyFails) {
  SimWorld world{7};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 8);
  bool called = false;
  chord.lookup(nodes.front(), "no-such-key", [&](proto::LookupResult r) {
    called = true;
    EXPECT_FALSE(r.success);
  });
  world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Chord, StructuredLookupNeverFailsWithoutChurn) {
  // The paper's claim: structured overlays have zero lookup failure ratio.
  SimWorld world{8};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 24);
  for (int i = 0; i < 100; ++i) {
    chord.store(nodes[static_cast<std::size_t>(i) % nodes.size()],
                "item" + std::to_string(i), 1);
  }
  world.sim.run();
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    chord.lookup(nodes[(static_cast<std::size_t>(i) * 7) % nodes.size()],
                 "item" + std::to_string(i),
                 [&](proto::LookupResult r) { failures += !r.success; });
  }
  world.sim.run();
  EXPECT_EQ(failures, 0);
}

TEST(Chord, TransportSpanRecorderTracesLookupHops) {
  // The recorder goes on the transport and nowhere else: the overlay
  // records its span trees through it.
  SimWorld world{9};
  ChordParams params;
  params.routing = RoutingMode::kRing;
  ChordNetwork chord{world.network, params};
  const auto nodes = build_ring(world, chord, 16);
  chord.store(nodes[3], "traced", 1);
  world.sim.run();

  stats::SpanRecorder recorder;
  world.network.set_span_recorder(&recorder);
  proto::LookupResult result;
  chord.lookup(nodes[11], "traced",
               [&](proto::LookupResult r) { result = r; });
  world.sim.run();
  ASSERT_TRUE(result.success);
  ASSERT_GT(result.request_hops, 0u);

  const stats::Span* root = nullptr;
  std::size_t hops = 0;
  for (const stats::Span& s : recorder.spans()) {
    if (s.parent == 0 && !s.instant) {
      ASSERT_EQ(root, nullptr) << "one lookup, one root span";
      root = &s;
    }
    if (s.instant && std::string_view{s.name} == "ring_hop") ++hops;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(std::string_view{root->name}, "lookup");
  EXPECT_FALSE(root->open);
  EXPECT_EQ(hops, result.request_hops);
  for (const stats::Span& s : recorder.spans()) {
    EXPECT_EQ(s.trace_id, root->trace_id);
  }
}

TEST(Chord, GracefulLeavePreservesData) {
  SimWorld world{9};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 12);
  for (int i = 0; i < 60; ++i) {
    chord.store(nodes.front(), "k" + std::to_string(i), 1);
  }
  world.sim.run();
  ASSERT_EQ(chord.total_items(), 60u);
  chord.leave(nodes[5]);
  world.sim.run();
  EXPECT_EQ(chord.total_items(), 60u);  // moved, not lost
  EXPECT_TRUE(chord.verify_ring(nodes.front(), 11));
}

TEST(Chord, LeaveRepairsNeighborPointers) {
  SimWorld world{10};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 6);
  const auto leaving = nodes[3];
  const auto pred = chord.view(leaving).predecessor;
  const auto succ = chord.view(leaving).successor;
  chord.leave(leaving);
  world.sim.run();
  EXPECT_EQ(chord.view(pred).successor, succ);
  EXPECT_EQ(chord.view(succ).predecessor, pred);
}

TEST(Chord, CrashLosesDataButLookupStillCompletes) {
  SimWorld world{11};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 10);
  chord.store(nodes.front(), "victim-key", 1);
  world.sim.run();
  // Find the owner and crash it.
  PeerIndex owner = kNoPeer;
  chord.lookup(nodes.front(), "victim-key",
               [&](proto::LookupResult r) { owner = r.found_at; });
  world.sim.run();
  ASSERT_NE(owner, kNoPeer);
  chord.crash(owner);
  bool called = false;
  std::size_t requester = 0;
  while (nodes[requester] == owner) ++requester;
  chord.lookup(nodes[requester], "victim-key", [&](proto::LookupResult r) {
    called = true;
    EXPECT_FALSE(r.success);
  });
  world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Chord, StabilizationRepairsRingAfterCrash) {
  SimWorld world{12};
  ChordParams params;
  params.stabilize_interval = sim::SimTime::millis(200);
  params.probe_timeout = sim::SimTime::millis(400);
  ChordNetwork chord{world.network, params};
  const auto nodes = build_ring(world, chord, 10);
  chord.start_maintenance(world.rng);
  world.sim.run_until(world.sim.now() + sim::SimTime::seconds(2));
  chord.crash(nodes[4]);
  world.sim.run_until(world.sim.now() + sim::SimTime::seconds(10));
  // The predecessor of the crashed node must have routed around it.
  std::size_t live = 0;
  std::size_t self_loops = 0;
  for (const auto n : nodes) {
    const auto v = chord.view(n);
    if (!v.joined) continue;
    ++live;
    if (v.successor == n) ++self_loops;
    EXPECT_NE(v.successor, nodes[4]) << "stale successor pointer";
  }
  EXPECT_EQ(live, 9u);
  EXPECT_EQ(self_loops, 0u);
}

TEST(Chord, FingerRoutingBeatsRingRouting) {
  SimWorld world{13};
  ChordParams ring_params;
  ring_params.routing = RoutingMode::kRing;
  ChordParams finger_params;
  finger_params.routing = RoutingMode::kFinger;
  finger_params.stabilize_interval = sim::SimTime::millis(100);
  finger_params.fix_fingers_interval = sim::SimTime::millis(100);

  auto measure = [](SimWorld& w, ChordParams p, bool maintain) {
    ChordNetwork chord{w.network, p};
    std::vector<PeerIndex> nodes;
    nodes.push_back(chord.create_ring(
        w.next_host(), PeerId{w.rng.uniform(0, kRingSize - 1)}));
    for (int i = 1; i < 48; ++i) {
      const PeerIndex n = chord.register_node(
          w.next_host(), PeerId{w.rng.uniform(0, kRingSize - 1)});
      chord.join(n, nodes.front(), {});
      w.sim.run();
      nodes.push_back(n);
    }
    if (maintain) {
      chord.start_maintenance(w.rng);
      // Enough rounds for every node to refresh all 32 fingers.
      w.sim.run_until(w.sim.now() + sim::SimTime::seconds(20));
    }
    for (int i = 0; i < 40; ++i) {
      chord.store(nodes.front(), "k" + std::to_string(i), 1);
    }
    std::uint64_t hops = 0;
    int count = 0;
    for (int i = 0; i < 40; ++i) {
      chord.lookup(nodes[static_cast<std::size_t>(i) % nodes.size()],
                   "k" + std::to_string(i), [&](proto::LookupResult r) {
                     if (r.success) {
                       hops += r.request_hops;
                       ++count;
                     }
                   });
    }
    w.sim.run_until(w.sim.now() + sim::SimTime::seconds(30));
    return count > 0 ? static_cast<double>(hops) / count : 1e9;
  };

  SimWorld w1{14};
  SimWorld w2{14};
  const double ring_hops = measure(w1, ring_params, false);
  const double finger_hops = measure(w2, finger_params, true);
  EXPECT_LT(finger_hops, ring_hops * 0.6)
      << "ring=" << ring_hops << " finger=" << finger_hops;
}

TEST(Chord, ViewExposesConsistentPointers) {
  SimWorld world{15};
  ChordNetwork chord{world.network, {}};
  const auto nodes = build_ring(world, chord, 8);
  std::set<std::uint64_t> ids;
  for (const auto n : nodes) {
    const auto v = chord.view(n);
    EXPECT_TRUE(v.joined);
    EXPECT_TRUE(v.alive);
    ids.insert(v.id.value());
    // Mutual pointers.
    EXPECT_EQ(chord.view(v.successor).predecessor, n);
    EXPECT_EQ(chord.view(v.predecessor).successor, n);
  }
  EXPECT_EQ(ids.size(), 8u);  // distinct ids after conflict resolution
}

TEST(Chord, LoadTransferMovesOnlyOwnedArc) {
  SimWorld world{16};
  ChordNetwork chord{world.network, {}};
  // Two-node ring, all data at one node, then a third joins in between.
  const PeerIndex a = chord.create_ring(world.next_host(), PeerId{0});
  const PeerIndex b =
      chord.register_node(world.next_host(), PeerId{kRingSize / 2});
  chord.join(b, a, {});
  world.sim.run();
  for (int i = 0; i < 200; ++i) {
    chord.store(a, "k" + std::to_string(i), 1);
  }
  world.sim.run();
  const PeerIndex c =
      chord.register_node(world.next_host(), PeerId{kRingSize / 4});
  chord.join(c, a, {});
  world.sim.run();
  EXPECT_TRUE(chord.placement_consistent());
  EXPECT_EQ(chord.total_items(), 200u);
  EXPECT_GT(chord.store_of(c).size(), 0u) << "new node received no load";
}

}  // namespace
}  // namespace hp2p::chord
