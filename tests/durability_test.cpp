// Data-durability tests for segment-local replication: deterministic
// replica-holder selection, crash-storm survival at r >= 2 (the chaos
// oracle's sharper MUST rule), anti-entropy convergence after a partition
// heals, a deliberate-regression canary (repair disabled must be caught by
// the replica_count audit), and the r = 1 dormancy contract (the new knobs
// must not perturb unreplicated runs at all).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "audit/fault_inject.hpp"
#include "chaos/chaos_runner.hpp"
#include "common/hashing.hpp"
#include "hybrid/hybrid_system.hpp"
#include "tests/test_util.hpp"

namespace hp2p::chaos {
namespace {

// --- Replica-set selection ----------------------------------------------------

/// Minimal staged-join fixture (mirrors hybrid_test's HybridFixture).
struct Fixture {
  explicit Fixture(std::uint64_t seed, hybrid::HybridParams params,
                   std::uint32_t hosts = 200)
      : world(seed, hosts), system(world.network, params, HostIndex{0},
                                   world.rng) {}

  void build(std::size_t n) {
    const double ps = system.params().ps;
    auto n_t = static_cast<std::size_t>(
        std::max(1.0, (1.0 - ps) * static_cast<double>(n) + 0.5));
    n_t = std::min(n_t, n);
    std::vector<hybrid::Role> roles(n, hybrid::Role::kSPeer);
    for (std::size_t i = 0; i < n_t; ++i) roles[i] = hybrid::Role::kTPeer;
    std::vector<hybrid::Role> tail(roles.begin() + 1, roles.end());
    world.rng.shuffle(tail);
    std::copy(tail.begin(), tail.end(), roles.begin() + 1);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const hybrid::Role role = roles[i];
      world.sim.schedule_after(
          sim::SimTime::millis(static_cast<std::int64_t>(i) * 40), [&, role] {
            peers.push_back(system.add_peer_with_role(
                world.next_host(), role,
                [&](proto::JoinResult) { ++completed; }));
          });
    }
    world.sim.run();
    ASSERT_EQ(completed, n);
  }

  testing::SimWorld world;
  hybrid::HybridSystem system;
  std::vector<PeerIndex> peers;
};

hybrid::HybridParams replicated_params(unsigned r) {
  hybrid::HybridParams p;
  p.ps = 0.6;
  p.delta = 3;
  p.ttl = 8;
  p.replication_factor = r;
  return p;
}

TEST(Durability, ReplicaSetSelectionIsDeterministic) {
  Fixture a{91, replicated_params(2)};
  Fixture b{91, replicated_params(2)};
  a.build(40);
  b.build(40);
  for (std::uint64_t v = 1; v <= 64; ++v) {
    const DataId id{mix64(v)};
    const auto ra = a.system.replica_set(id);
    const auto rb = b.system.replica_set(id);
    // Same seed => same overlay => byte-identical holder choice, and the
    // choice is a pure function of the state (stable across calls).
    EXPECT_EQ(ra, rb) << "id " << id.value();
    EXPECT_EQ(ra, a.system.replica_set(id)) << "id " << id.value();
    ASSERT_FALSE(ra.empty());
    EXPECT_EQ(ra.front(), a.system.owner_tpeer(id));
    EXPECT_LE(ra.size(), 2u + 1u);  // r holders + successor fallback at most
    for (std::size_t i = 0; i < ra.size(); ++i) {
      for (std::size_t j = i + 1; j < ra.size(); ++j) {
        EXPECT_NE(ra[i], ra[j]) << "duplicate holder for id " << id.value();
      }
    }
  }
}

/// Diffs the anti-entropy sweep's replica test, and replica_set(id), against
/// a replica set rebuilt without the seat memo (a fresh s-network walk, fully
/// sorted), for every live joined peer and every id in a live t-peer's
/// digest.  Returns how many of the pairs in a replica set were seated by
/// the successor fallback.
std::size_t expect_sweep_matches_replica_set(const hybrid::HybridSystem& sys) {
  std::vector<PeerIndex> live;
  std::vector<DataId> digest_ids;
  for (std::uint32_t i = 0; i < sys.num_peers(); ++i) {
    const PeerIndex p{i};
    if (sys.is_server_peer(p) || !sys.is_alive(p) || !sys.is_joined(p)) {
      continue;
    }
    live.push_back(p);
    if (sys.role_of(p) != hybrid::Role::kTPeer) continue;
    const auto [lo, hi] = sys.segment_of(p);
    for (const DataId id : sys.store_of(p).ids_in_arc(lo, hi)) {
      digest_ids.push_back(id);
    }
  }
  EXPECT_FALSE(digest_ids.empty());
  std::size_t fallbacks = 0;
  std::size_t mismatches = 0;
  for (const DataId id : digest_ids) {
    const auto rs = hybrid::FaultInjector::fresh_replica_set(sys, id);
    if (sys.replica_set(id) != rs && ++mismatches == 1) {
      ADD_FAILURE() << "id " << id.value()
                    << ": replica_set differs from a fresh ranking";
    }
    for (const PeerIndex p : live) {
      const bool in_set = std::find(rs.begin(), rs.end(), p) != rs.end();
      if (hybrid::FaultInjector::sweep_in_replica_set(sys, p, id) != in_set &&
          ++mismatches == 1) {
        ADD_FAILURE() << "peer " << p << ", id " << id.value()
                      << ": a fresh ranking says " << in_set;
      }
      if (in_set && p != rs.front() && p == sys.successor_of(rs.front())) {
        ++fallbacks;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return fallbacks;
}

TEST(Durability, SweepReplicaTestMatchesReplicaSetThroughCrashStorm) {
  // 300 peers at p_s 0.6 leave many segments with fewer than r - 1 members,
  // so the successor fallback is exercised as well as the ranking.  The
  // states are diffed mid-repair after each crash and once settled.
  for (const unsigned r : {2u, 3u}) {
    SCOPED_TRACE("replication_factor " + std::to_string(r));
    Fixture fx{97, replicated_params(r), 320};
    fx.build(300);
    for (std::size_t i = 0; i < 300; ++i) {
      fx.system.store(fx.peers[(i * 7) % fx.peers.size()],
                      "item-" + std::to_string(i), i);
    }
    fx.world.sim.run();
    fx.system.start_failure_detection();
    std::vector<PeerIndex> victims;
    for (const PeerIndex p : fx.peers) {
      if (fx.system.role_of(p) == hybrid::Role::kTPeer && victims.size() < 10) {
        victims.push_back(p);
      }
    }
    std::size_t fallbacks = 0;
    for (std::size_t k = 0; k < victims.size(); ++k) {
      const auto at = sim::SimTime::seconds(2.0 * static_cast<double>(k));
      fx.world.sim.schedule_after(
          at, [&fx, v = victims[k]] { fx.system.crash(v); });
      fx.world.sim.schedule_after(at + sim::SimTime::seconds(1), [&] {
        fallbacks += expect_sweep_matches_replica_set(fx.system);
      });
    }
    fx.world.sim.run_until(fx.world.sim.now() + sim::SimTime::seconds(80));
    fallbacks += expect_sweep_matches_replica_set(fx.system);
    EXPECT_GT(fallbacks, 0u) << "the successor fallback never fired";
  }
}

// --- Chaos-driven durability --------------------------------------------------

FaultSchedule fixed_crash_storm() {
  FaultSchedule s;
  s.seed = 200;
  FaultPhase storm;
  storm.kind = FaultKind::kTPeerCrashStorm;
  storm.start = sim::SimTime::seconds(15);
  storm.duration = sim::SimTime::seconds(8);
  storm.count = 5;
  s.phases.push_back(storm);
  return s;
}

ChaosConfig storm_config(unsigned replication_factor) {
  ChaosConfig cfg;
  cfg.seed = 200;
  cfg.schedule = fixed_crash_storm();
  cfg.storm_lookups = 60;
  cfg.params.replication_factor = replication_factor;
  return cfg;
}

TEST(Durability, CrashStormWithReplicationHasZeroMustFailures) {
  // Acceptance bar: with r = 2 the single-t-peer crash-storm schedule loses
  // no MUST-succeed lookup -- every item a live replica survives for is
  // restored to its (possibly new) owner and found.
  const auto cfg = storm_config(2);
  const auto report = run_chaos(cfg);
  EXPECT_TRUE(report.clean())
      << "reproducer: " << cfg.schedule.one_line()
      << "\nreport: " << report.to_json().dump(2);
  EXPECT_GT(report.must_issued, 0u);
  EXPECT_EQ(report.must_failed, 0u);
}

TEST(Durability, AntiEntropyConvergesAfterPartitionHeals) {
  // A symmetric partition splits replica sets from their owners; after the
  // heal + settle, the strict audit (including replica_count) must pass --
  // i.e. the anti-entropy sweep re-converged every item's holder set.
  ChaosConfig cfg;
  cfg.seed = 203;
  FaultSchedule s;
  s.seed = 203;
  FaultPhase cut;
  cut.kind = FaultKind::kPartition;
  cut.start = sim::SimTime::seconds(15);
  cut.duration = sim::SimTime::seconds(6);
  cut.param = 3;
  cut.symmetric = true;
  s.phases.push_back(cut);
  cfg.schedule = s;
  cfg.params.replication_factor = 2;
  const auto report = run_chaos(cfg);
  EXPECT_TRUE(report.clean())
      << "reproducer: " << cfg.schedule.one_line()
      << "\nreport: " << report.to_json().dump(2);
  EXPECT_GT(report.must_issued, 0u);
  EXPECT_EQ(report.must_failed, 0u);
}

TEST(Durability, DisablingRepairIsCaught) {
  // Canary (mirrors ChaosStorm.DisablingRingRetryIsCaught): replication is
  // configured but both repair channels are switched off.  After the crash
  // storm the promoted owners never recover their segments' items, so the
  // strict replica_count invariant must flag the run.
  auto cfg = storm_config(2);
  cfg.params.re_replicate_on_churn = false;
  cfg.params.anti_entropy_period = sim::Duration{};
  const auto report = run_chaos(cfg);
  bool replica_count_flagged = false;
  for (const auto& v : report.violations) {
    replica_count_flagged |=
        std::string(v.kind) == "audit" &&
        v.detail.find("replica_count") != std::string::npos;
  }
  EXPECT_TRUE(replica_count_flagged)
      << "repair disabled but no replica_count audit violation; report: "
      << report.to_json().dump(2);
}

TEST(Durability, ReplicationKnobsAreDormantAtROne) {
  // r = 1 must be bit-for-bit the unreplicated system: toggling the repair
  // knobs can change nothing, so the full chaos reports (every counter,
  // every verdict) are byte-identical.
  auto base = storm_config(1);
  const auto baseline = run_chaos(base);
  auto toggled = base;
  toggled.params.anti_entropy_period = sim::Duration{};
  toggled.params.re_replicate_on_churn = false;
  const auto variant = run_chaos(toggled);
  EXPECT_EQ(baseline.to_json().dump(0), variant.to_json().dump(0));
  auto longer = base;
  longer.params.anti_entropy_period = sim::SimTime::seconds(1);
  EXPECT_EQ(baseline.to_json().dump(0), run_chaos(longer).to_json().dump(0));
}

}  // namespace
}  // namespace hp2p::chaos
