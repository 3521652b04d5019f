// Integration tests for the experiment harness: small replicas of the
// paper's workload phases end to end.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/harness.hpp"

namespace hp2p::exp {
namespace {

RunConfig small_config(std::uint64_t seed, double ps) {
  RunConfig c;
  c.seed = seed;
  c.num_peers = 60;
  c.num_items = 120;
  c.num_lookups = 120;
  c.hybrid.ps = ps;
  c.hybrid.ttl = 8;
  return c;
}

TEST(Harness, AllJoinsAndOpsComplete) {
  const auto r = run_hybrid_experiment(small_config(1, 0.5));
  EXPECT_EQ(r.joins_completed, 60u);
  EXPECT_EQ(r.lookups.issued, 120u);
  EXPECT_EQ(r.num_tpeers + r.num_speers, 60u);
}

TEST(Harness, NoChurnNoFailures) {
  const auto r = run_hybrid_experiment(small_config(2, 0.5));
  EXPECT_EQ(r.lookups.failed, 0u);
  EXPECT_DOUBLE_EQ(r.lookups.failure_ratio(), 0.0);
}

TEST(Harness, DeterministicForSeed) {
  const auto a = run_hybrid_experiment(small_config(3, 0.6));
  const auto b = run_hybrid_experiment(small_config(3, 0.6));
  EXPECT_EQ(a.connum(), b.connum());
  EXPECT_DOUBLE_EQ(a.lookup_latency_ms.mean(), b.lookup_latency_ms.mean());
  EXPECT_EQ(a.network.messages_sent, b.network.messages_sent);
}

TEST(Harness, DifferentSeedsDiffer) {
  const auto a = run_hybrid_experiment(small_config(4, 0.6));
  const auto b = run_hybrid_experiment(small_config(5, 0.6));
  EXPECT_NE(a.network.messages_sent, b.network.messages_sent);
}

TEST(Harness, ConnumDecreasesWithPs) {
  // Table 2's headline trend (ring routing).
  auto low = small_config(6, 0.1);
  auto high = small_config(6, 0.9);
  const auto r_low = run_hybrid_experiment(low);
  const auto r_high = run_hybrid_experiment(high);
  EXPECT_GT(r_low.connum(), r_high.connum());
}

TEST(Harness, CrashFractionRaisesFailureRatio) {
  auto base = small_config(7, 0.5);
  base.hybrid.lookup_timeout = sim::SimTime::seconds(5);
  auto crashed = base;
  crashed.crash_fraction = 0.3;
  const auto r0 = run_hybrid_experiment(base);
  const auto r1 = run_hybrid_experiment(crashed);
  EXPECT_GT(r1.lookups.failure_ratio(), r0.lookups.failure_ratio());
}

TEST(Harness, ItemsPerPeerAccountsForEverything) {
  const auto r = run_hybrid_experiment(small_config(8, 0.5));
  std::size_t total = 0;
  for (const auto n : r.items_per_peer) total += n;
  EXPECT_EQ(total, 120u);
}

TEST(Harness, TransmissionDelayIncreasesLatency) {
  auto plain = small_config(9, 0.5);
  auto hetero = plain;
  hetero.model_transmission_delay = true;
  const auto r_plain = run_hybrid_experiment(plain);
  const auto r_hetero = run_hybrid_experiment(hetero);
  EXPECT_GT(r_hetero.lookup_latency_ms.mean(),
            r_plain.lookup_latency_ms.mean());
}

TEST(Harness, CapacitySortedRolesReduceLatencyUnderHeterogeneity) {
  // Fig. 6a's claim: with transmission delays modeled, putting fast hosts
  // on the t-network shortens lookups.
  auto base = small_config(10, 0.7);
  base.model_transmission_delay = true;
  auto sorted = base;
  sorted.capacity_sorted_roles = true;
  const auto r_base = run_hybrid_experiment(base);
  const auto r_sorted = run_hybrid_experiment(sorted);
  EXPECT_LT(r_sorted.lookup_latency_ms.mean(),
            r_base.lookup_latency_ms.mean() * 1.05);
}

TEST(Harness, InterestLocalityReducesLookupLatency) {
  // Interest-local lookups stay inside the local s-network: a few tree hops
  // instead of cp-chain + ring walk + remote flood.  (Contacted-peer counts
  // can go either way at small scale -- a local flood touches the whole
  // tree -- so latency is the discriminating metric, as in Section 5.3.)
  auto base = small_config(11, 0.8);
  auto local = base;
  local.interest_locality = 0.9;
  local.hybrid.interest_based = true;
  local.hybrid.num_interests = 4;
  local.tpeers_first = true;  // anchors must not drift during the build
  const auto r_base = run_hybrid_experiment(base);
  const auto r_local = run_hybrid_experiment(local);
  EXPECT_LT(r_local.lookup_latency_ms.mean(),
            r_base.lookup_latency_ms.mean());
}

TEST(Harness, LinkStressTrackedWhenEnabled) {
  auto c = small_config(12, 0.5);
  c.track_link_stress = true;
  const auto r = run_hybrid_experiment(c);
  EXPECT_GT(r.max_link_stress, 0u);
}

TEST(Harness, ParallelMapMatchesSequential) {
  std::vector<RunConfig> configs;
  for (int i = 0; i < 4; ++i) configs.push_back(small_config(20 + static_cast<std::uint64_t>(i), 0.5));
  const auto parallel = parallel_map(
      configs, [](const RunConfig& c) { return run_hybrid_experiment(c); }, 4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto seq = run_hybrid_experiment(configs[i]);
    EXPECT_EQ(parallel[i].connum(), seq.connum()) << "replica " << i;
    EXPECT_EQ(parallel[i].network.messages_sent, seq.network.messages_sent);
  }
}

TEST(Harness, TPeersCarryMoreTrafficThanSPeers) {
  // The load-imbalance observation behind Section 5.1.
  auto cfg = small_config(30, 0.7);
  const auto r = run_hybrid_experiment(cfg);
  EXPECT_GT(r.mean_tpeer_traffic, r.mean_speer_traffic * 1.5)
      << "t=" << r.mean_tpeer_traffic << " s=" << r.mean_speer_traffic;
}

TEST(Harness, MeanOfHelper) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Harness, RecordsPhaseTimingsAndSimStats) {
  const auto r = run_hybrid_experiment(small_config(31, 0.5));
  ASSERT_GE(r.phases.size(), 3u);
  EXPECT_EQ(r.phases[0].name, "build");
  for (const auto& ph : r.phases) {
    EXPECT_GE(ph.wall_ms, 0.0) << ph.name;
    EXPECT_GE(ph.sim_ms, 0.0) << ph.name;
  }
  EXPECT_GT(r.sim_stats.events_executed, 0u);
  EXPECT_GE(r.sim_stats.events_scheduled, r.sim_stats.events_executed);
}

TEST(Harness, FingerFdLookupPhaseEndsAtLastAnswer) {
  // 1,000 peers at p_s 0.99 (10 t-peers), finger routing, 5% crashes,
  // 30 s of failure detection, r = 2.  Heartbeats keep the event queue
  // busy, so the lookup phase must end at the last answer instead of
  // heartbeating out a deadline sized for a ring walk over all N peers.
  RunConfig c;
  c.seed = 42;
  c.num_peers = 1000;
  c.num_items = 50;
  c.num_lookups = 1000;
  c.tpeers_first = true;
  c.crash_fraction = 0.05;
  c.failure_detection = true;
  c.recovery_time = sim::SimTime::seconds(30);
  c.hybrid.delta = 3;
  c.hybrid.ps = 0.99;
  c.hybrid.ttl = 8;
  c.hybrid.t_routing = hybrid::TRouting::kFinger;
  c.hybrid.replication_factor = 2;
  const auto r = run_hybrid_experiment(c);
  ASSERT_EQ(r.phases.back().name, "lookup");
  EXPECT_LT(r.phases.back().sim_ms, 30'000.0);
  EXPECT_EQ(r.lookups.issued, 1000u);
  EXPECT_EQ(r.lookups.succeeded, 996u);
  EXPECT_EQ(r.lookups.failed, 4u);
}

TEST(ParallelMap, PropagatesWorkerExceptions) {
  const std::vector<int> configs{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(parallel_map(
                   configs,
                   [](int c) -> int {
                     if (c == 3) throw std::runtime_error{"boom"};
                     return c * 2;
                   },
                   2),
               std::runtime_error);
}

TEST(ParallelMap, SupportsNonDefaultConstructibleResults) {
  struct Wrapped {
    explicit Wrapped(int v) : value(v) {}
    int value;
  };
  const std::vector<int> configs{1, 2, 3};
  const auto out =
      parallel_map(configs, [](int c) { return Wrapped{c * 10}; }, 2);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 10);
  EXPECT_EQ(out[1].value, 20);
  EXPECT_EQ(out[2].value, 30);
}

}  // namespace
}  // namespace hp2p::exp
