// Integration tests for the Chord/Gnutella experiment harnesses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/baselines.hpp"

namespace hp2p::exp {
namespace {

ChordRunConfig chord_config(std::uint64_t seed) {
  ChordRunConfig c;
  c.seed = seed;
  c.num_peers = 40;
  c.num_items = 80;
  c.num_lookups = 80;
  return c;
}

GnutellaRunConfig gnutella_config(std::uint64_t seed) {
  GnutellaRunConfig c;
  c.seed = seed;
  c.num_peers = 40;
  c.num_items = 80;
  c.num_lookups = 80;
  c.gnutella.ttl = 6;
  return c;
}

TEST(ChordHarness, ZeroFailuresWithoutChurn) {
  const auto r = run_chord_experiment(chord_config(1));
  EXPECT_EQ(r.joins_completed, 40u);
  EXPECT_EQ(r.lookups.issued, 80u);
  EXPECT_EQ(r.lookups.failed, 0u);
}

TEST(ChordHarness, AllItemsPlaced) {
  const auto r = run_chord_experiment(chord_config(2));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 80u);
}

TEST(ChordHarness, RingRoutingContactsManyPeers) {
  auto cfg = chord_config(3);
  cfg.chord.routing = chord::RoutingMode::kRing;
  const auto r = run_chord_experiment(cfg);
  // ~N/2 per lookup on a 40-node ring.
  EXPECT_GT(static_cast<double>(r.connum()) / 80.0, 10.0);
}

TEST(ChordHarness, DeterministicForSeed) {
  const auto a = run_chord_experiment(chord_config(4));
  const auto b = run_chord_experiment(chord_config(4));
  EXPECT_EQ(a.connum(), b.connum());
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
}

TEST(GnutellaHarness, JoinsAreInstant) {
  const auto r = run_gnutella_experiment(gnutella_config(5));
  EXPECT_EQ(r.joins_completed, 40u);
  EXPECT_DOUBLE_EQ(r.join_latency_ms.mean(), 0.0);  // no latency recorded
}

TEST(GnutellaHarness, FloodingFindsMostItems) {
  const auto r = run_gnutella_experiment(gnutella_config(6));
  EXPECT_EQ(r.lookups.issued, 80u);
  EXPECT_LT(r.lookups.failure_ratio(), 0.2);
}

TEST(GnutellaHarness, SmallTtlFailsMore) {
  auto small = gnutella_config(7);
  small.gnutella.ttl = 1;
  auto big = gnutella_config(7);
  big.gnutella.ttl = 7;
  const auto r_small = run_gnutella_experiment(small);
  const auto r_big = run_gnutella_experiment(big);
  EXPECT_GE(r_small.lookups.failure_ratio(), r_big.lookups.failure_ratio());
}

TEST(GnutellaHarness, DataStaysAtPublishers) {
  const auto r = run_gnutella_experiment(gnutella_config(8));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 80u);
}

TEST(Baselines, ChordJoinsSlowerThanGnutella) {
  // The framing comparison of Section 1 at miniature scale.
  const auto chord = run_chord_experiment(chord_config(9));
  const auto gnutella = run_gnutella_experiment(gnutella_config(9));
  EXPECT_GT(chord.join_latency_ms.mean(), gnutella.join_latency_ms.mean());
  EXPECT_EQ(chord.lookups.failed, 0u);
}

// The three baseline rows of baseline_comparison, at 200 peers and seed 42:
// any change to a pinned outcome below must be one a change states.
ChordRunConfig pinned_chord(chord::RoutingMode routing, bool maintenance) {
  ChordRunConfig c;
  c.seed = 42;
  c.num_peers = 200;
  c.num_items = 400;
  c.num_lookups = 400;
  c.chord.routing = routing;
  c.maintenance = maintenance;
  return c;
}

GnutellaRunConfig pinned_gnutella() {
  GnutellaRunConfig c;
  c.seed = 42;
  c.num_peers = 200;
  c.num_items = 400;
  c.num_lookups = 400;
  c.gnutella.ttl = 5;
  c.gnutella.neighbors_per_join = 3;
  return c;
}

struct Outcome {
  std::uint64_t messages_sent;
  std::uint64_t bytes_sent;
  std::uint64_t connum;
  std::uint64_t lookups_failed;
  double join_latency_ms_sum;
  double lookup_latency_ms_sum;
};

void expect_outcome(const RunResult& r, const Outcome& want) {
  EXPECT_EQ(r.network.messages_sent, want.messages_sent);
  EXPECT_EQ(r.network.bytes_sent, want.bytes_sent);
  EXPECT_EQ(r.connum(), want.connum);
  EXPECT_EQ(r.lookups.failed, want.lookups_failed);
  EXPECT_DOUBLE_EQ(r.join_latency_ms.sum(), want.join_latency_ms_sum);
  EXPECT_DOUBLE_EQ(r.lookup_latency_ms.sum(), want.lookup_latency_ms_sum);
}

TEST(Baselines, SeedOutcomesArePinned) {
  {
    SCOPED_TRACE("chord, ring routing");
    expect_outcome(
        run_chord_experiment(pinned_chord(chord::RoutingMode::kRing, false)),
        {91062, 329622272, 40011, 0, 1286225.9630000002, 4856894.9659999991});
  }
  {
    // The lookup phase ends at the last answer, as a hybrid run with
    // heartbeats does; running stabilization on to the lookup deadline
    // instead sent 484,589 messages (292,429,696 bytes), all else equal.
    SCOPED_TRACE("chord, finger routing with maintenance");
    expect_outcome(
        run_chord_experiment(pinned_chord(chord::RoutingMode::kFinger, true)),
        {326387, 282304768, 2229, 0, 1286225.9630000002, 273198.76699999999});
  }
  {
    SCOPED_TRACE("gnutella, flood TTL 5");
    expect_outcome(run_gnutella_experiment(pinned_gnutella()),
                   {267262, 37419008, 67050, 1, 0.0, 162378.76500000019});
  }
}

// The baselines fill the same result fields the hybrid harness does.
void expect_collected(const RunResult& r, std::size_t num_peers,
                      std::size_t num_items) {
  EXPECT_GT(r.sim_stats.events_executed, 0u);
  std::vector<std::string> phases;
  for (const PhaseTiming& t : r.phases) phases.push_back(t.name);
  EXPECT_EQ(phases,
            (std::vector<std::string>{"build", "populate", "lookup"}));
  EXPECT_GE(r.hosts, num_peers);
  EXPECT_EQ(r.items_per_peer.size(), num_peers);
  EXPECT_EQ(r.items_stored, num_items);  // the corpus keys are distinct
  EXPECT_EQ(r.items_recoverable, r.items_stored);  // nothing crashed
}

TEST(Baselines, ResultsCarryKernelStatsPhasesAndCensus) {
  {
    SCOPED_TRACE("chord, ring routing");
    auto cfg = chord_config(10);
    cfg.chord.routing = chord::RoutingMode::kRing;
    expect_collected(run_chord_experiment(cfg), 40, 80);
  }
  {
    SCOPED_TRACE("chord, finger routing with maintenance");
    auto cfg = chord_config(10);
    cfg.maintenance = true;
    expect_collected(run_chord_experiment(cfg), 40, 80);
  }
  {
    SCOPED_TRACE("gnutella");
    expect_collected(run_gnutella_experiment(gnutella_config(10)), 40, 80);
  }
}

}  // namespace
}  // namespace hp2p::exp
