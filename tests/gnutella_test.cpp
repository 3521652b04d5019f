// Tests for the Gnutella-style unstructured baseline.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "gnutella/gnutella.hpp"
#include "tests/test_util.hpp"

namespace hp2p::gnutella {
namespace {

using testing::SimWorld;

std::vector<PeerIndex> build_mesh(SimWorld& world, GnutellaNetwork& g,
                                  std::size_t n) {
  std::vector<PeerIndex> peers;
  for (std::size_t i = 0; i < n; ++i) {
    peers.push_back(g.join(world.next_host(), world.rng));
  }
  return peers;
}

TEST(Gnutella, JoinWiresRandomNeighbors) {
  SimWorld world{21};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 20);
  EXPECT_EQ(g.num_peers(), 20u);
  // First peer has no one to link to at join time but gains links later.
  EXPECT_FALSE(g.neighbors(peers.back()).empty());
  for (std::size_t i = 1; i < peers.size(); ++i) {
    EXPECT_GE(g.neighbors(peers[i]).size(), 1u);
  }
  EXPECT_TRUE(g.overlay_connected());
}

TEST(Gnutella, NeighborLinksAreSymmetric) {
  SimWorld world{22};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 15);
  for (const auto p : peers) {
    for (const auto n : g.neighbors(p)) {
      const auto& back = g.neighbors(n);
      EXPECT_NE(std::find(back.begin(), back.end(), p), back.end());
    }
  }
}

TEST(Gnutella, DataStaysAtGeneratingPeer) {
  SimWorld world{23};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 5);
  g.store(peers[2], "file.txt", 42);
  EXPECT_EQ(g.store_of(peers[2]).size(), 1u);
  for (const auto p : peers) {
    if (p != peers[2]) {
      EXPECT_EQ(g.store_of(p).size(), 0u);
    }
  }
}

TEST(Gnutella, FloodFindsNearbyData) {
  SimWorld world{24};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 30);
  g.store(peers[7], "needle", 1);
  bool called = false;
  g.lookup(peers[8], "needle", [&](proto::LookupResult r) {
    called = true;
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.found_at, peers[7]);
    EXPECT_GT(r.peers_contacted, 0u);
  });
  world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Gnutella, TransportSpanRecorderTracesFloodHops) {
  // The recorder goes on the transport and nowhere else: the overlay
  // records its span trees through it.
  SimWorld world{24};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 30);
  g.store(peers[7], "needle", 1);
  stats::SpanRecorder recorder;
  world.network.set_span_recorder(&recorder);
  bool success = false;
  g.lookup(peers[8], "needle",
           [&](proto::LookupResult r) { success = r.success; });
  world.sim.run();
  ASSERT_TRUE(success);

  const stats::Span* root = nullptr;
  std::size_t hops = 0;
  for (const stats::Span& s : recorder.spans()) {
    if (s.parent == 0 && !s.instant) {
      ASSERT_EQ(root, nullptr) << "one lookup, one root span";
      root = &s;
    }
    if (s.instant && std::string_view{s.name} == "flood_hop") ++hops;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(std::string_view{root->name}, "lookup");
  EXPECT_FALSE(root->open);
  EXPECT_GT(hops, 0u);
  for (const stats::Span& s : recorder.spans()) {
    EXPECT_EQ(s.trace_id, root->trace_id);
  }
}

TEST(Gnutella, OriginLocalHitIsInstant) {
  SimWorld world{25};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 5);
  g.store(peers[0], "mine", 1);
  proto::LookupResult result;
  g.lookup(peers[0], "mine", [&](proto::LookupResult r) { result = r; });
  world.sim.run();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.latency.as_micros(), 0);
  EXPECT_EQ(result.peers_contacted, 0u);
}

TEST(Gnutella, TtlZeroReachesNothing) {
  SimWorld world{26};
  GnutellaParams params;
  params.ttl = 0;
  GnutellaNetwork g{world.network, params};
  const auto peers = build_mesh(world, g, 10);
  g.store(peers[5], "far", 1);
  bool success = true;
  g.lookup(peers[0], "far",
           [&](proto::LookupResult r) { success = r.success; });
  world.sim.run();
  EXPECT_FALSE(success);
}

TEST(Gnutella, LargerTtlLowersFailureRatio) {
  // Property from Section 4.2: failure ratio decreases with TTL.
  auto run = [](unsigned ttl) {
    SimWorld world{27};
    GnutellaParams params;
    params.ttl = ttl;
    params.neighbors_per_join = 2;
    GnutellaNetwork g{world.network, params};
    std::vector<PeerIndex> peers;
    for (int i = 0; i < 60; ++i) peers.push_back(g.join(world.next_host(), world.rng));
    for (int i = 0; i < 40; ++i) {
      g.store(peers[static_cast<std::size_t>(world.rng.index(peers.size()))],
              "k" + std::to_string(i), 1);
    }
    int failures = 0;
    for (int i = 0; i < 40; ++i) {
      g.lookup(peers[static_cast<std::size_t>(world.rng.index(peers.size()))],
               "k" + std::to_string(i),
               [&](proto::LookupResult r) { failures += !r.success; });
    }
    world.sim.run();
    return failures;
  };
  const int fail_small = run(1);
  const int fail_large = run(6);
  EXPECT_LE(fail_large, fail_small);
  EXPECT_GT(fail_small, 0);  // TTL=1 cannot cover a 60-peer mesh
}

TEST(Gnutella, DuplicateSuppressionBoundsContacts) {
  SimWorld world{28};
  GnutellaParams params;
  params.ttl = 10;  // flood everywhere
  GnutellaNetwork g{world.network, params};
  const auto peers = build_mesh(world, g, 25);
  bool called = false;
  g.lookup(peers[0], "absent", [&](proto::LookupResult r) {
    called = true;
    // Even with a huge TTL each peer is contacted at most once.
    EXPECT_LE(r.peers_contacted, 24u);
  });
  world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Gnutella, RandomWalkFindsData) {
  SimWorld world{29};
  GnutellaParams params;
  params.search = SearchMode::kRandomWalk;
  params.ttl = 30;
  params.walkers = 8;
  GnutellaNetwork g{world.network, params};
  const auto peers = build_mesh(world, g, 20);
  g.store(peers[10], "walked", 1);
  int successes = 0;
  for (int trial = 0; trial < 5; ++trial) {
    g.lookup(peers[0], "walked",
             [&](proto::LookupResult r) { successes += r.success; });
    world.sim.run();
  }
  EXPECT_GT(successes, 0);
}

TEST(Gnutella, GracefulLeaveRemovesLinks) {
  SimWorld world{30};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 12);
  const auto victim = peers[4];
  const auto nbrs = g.neighbors(victim);
  ASSERT_FALSE(nbrs.empty());
  g.leave(victim);
  for (const auto n : nbrs) {
    const auto& list = g.neighbors(n);
    EXPECT_EQ(std::find(list.begin(), list.end(), victim), list.end());
  }
  EXPECT_TRUE(g.neighbors(victim).empty());
}

TEST(Gnutella, CrashedPeerDataUnreachable) {
  SimWorld world{31};
  GnutellaNetwork g{world.network, {}};
  const auto peers = build_mesh(world, g, 15);
  g.store(peers[3], "lost", 1);
  g.crash(peers[3]);
  bool success = true;
  g.lookup(peers[0], "lost",
           [&](proto::LookupResult r) { success = r.success; });
  world.sim.run();
  EXPECT_FALSE(success);
}

TEST(Gnutella, FloodAroundCrashStillFindsOtherCopies) {
  SimWorld world{32};
  GnutellaParams params;
  params.ttl = 8;
  GnutellaNetwork g{world.network, params};
  const auto peers = build_mesh(world, g, 20);
  g.store(peers[5], "copy", 1);
  g.store(peers[15], "copy", 1);
  g.crash(peers[5]);
  bool success = false;
  g.lookup(peers[0], "copy",
           [&](proto::LookupResult r) { success = r.success; });
  world.sim.run();
  EXPECT_TRUE(success);
}

TEST(Gnutella, BfsRadiusSmallInWellConnectedMesh) {
  SimWorld world{33};
  GnutellaParams params;
  params.neighbors_per_join = 4;
  GnutellaNetwork g{world.network, params};
  const auto peers = build_mesh(world, g, 50);
  EXPECT_LE(g.bfs_radius(peers[0]), 8u);
}

}  // namespace
}  // namespace hp2p::gnutella
