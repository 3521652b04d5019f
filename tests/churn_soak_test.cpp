// Churn soak tests: sustained joins, graceful leaves and crashes against a
// live hybrid system with failure detection running, followed by invariant
// checks and a data-availability audit.  Parameterized over seeds and p_s
// so each instantiation explores a different interleaving.
#include <gtest/gtest.h>

#include <iostream>
#include <optional>
#include <set>
#include <vector>

#include "audit/overlay_auditor.hpp"
#include "common/env.hpp"
#include "exp/harness.hpp"
#include "hybrid/hybrid_system.hpp"
#include "stats/flight_recorder.hpp"
#include "tests/test_util.hpp"
#include "workload/workload.hpp"

namespace hp2p::hybrid {
namespace {

using testing::SimWorld;

struct SoakParams {
  std::uint64_t seed;
  double ps;
};

class ChurnSoak : public ::testing::TestWithParam<SoakParams> {};

TEST_P(ChurnSoak, SystemSurvivesSustainedChurn) {
  const auto [seed, ps] = GetParam();
  SimWorld world{seed, 220};
  HybridParams params;
  params.ps = ps;
  params.ttl = 10;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  params.lookup_timeout = sim::SimTime::seconds(10);
  HybridSystem system{world.network, params, HostIndex{0}, world.rng};

  // Always-on flight recorder over the kernel + transport observers: on an
  // availability failure below, its tail shows the run's final moments.
  stats::FlightRecorder flight{512};
  const exp::FlightRecorderTap flight_tap{flight, world.sim, world.network};

  // HP2P_AUDIT=1: lenient invariant audits every simulated second across
  // the whole soak -- any violation under churn is real corruption.
  std::optional<audit::OverlayAuditor> auditor;
  if (env_or("HP2P_AUDIT", std::int64_t{0}) != 0) {
    auditor.emplace(system, world.network, world.sim);
    auditor->set_period(sim::SimTime::seconds(1));
    auditor->set_flight_recorder(&flight);
  }
  const auto arm_audit = [&auditor] {
    if (auditor) auditor->ensure_running();
  };

  // Build 60 peers.
  std::vector<PeerIndex> peers;
  const auto n_t = static_cast<std::size_t>(
      std::max(1.0, (1.0 - ps) * 60.0 + 0.5));
  for (std::size_t i = 0; i < 60; ++i) {
    const Role role = i < n_t ? Role::kTPeer : Role::kSPeer;
    world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 40),
        [&, role] {
          peers.push_back(
              system.add_peer_with_role(world.next_host(), role, {}));
        });
  }
  arm_audit();
  world.sim.run();
  ASSERT_TRUE(system.verify_ring());

  // Seed data.
  Rng op = world.rng.fork(11);
  const auto corpus = workload::uniform_corpus(150, seed);
  for (const auto& item : corpus) {
    system.store_id(peers[op.index(peers.size())], item.id, item.key,
                    item.value);
  }
  arm_audit();
  world.sim.run();
  system.start_failure_detection();

  // Churn storm: interleaved joins, graceful leaves and crashes over ~20 s.
  std::size_t crashes = 0;
  std::size_t leaves = 0;
  std::size_t joins = 0;
  for (int i = 0; i < 30; ++i) {
    world.sim.schedule_after(
        sim::SimTime::millis(300 + static_cast<std::int64_t>(i) * 600),
        [&] {
          const double dice = op.uniform01();
          if (dice < 0.4) {
            // Join a fresh peer (role by coin weighted by ps).
            const Role role =
                op.chance(1.0 - ps) ? Role::kTPeer : Role::kSPeer;
            peers.push_back(
                system.add_peer_with_role(world.next_host(), role, {}));
            ++joins;
            return;
          }
          // Pick a live victim.
          for (int attempt = 0; attempt < 100; ++attempt) {
            const PeerIndex p = peers[op.index(peers.size())];
            if (!system.is_joined(p) || !system.is_alive(p)) continue;
            if (dice < 0.75) {
              system.leave(p);
              ++leaves;
            } else {
              system.crash(p);
              ++crashes;
            }
            return;
          }
        });
  }
  // Let the churn play out and the detectors repair everything.
  arm_audit();
  world.sim.run_until(world.sim.now() + sim::SimTime::seconds(60));

  EXPECT_GT(joins + leaves + crashes, 25u) << "churn did not execute";
  EXPECT_TRUE(system.verify_ring()) << "ring broken after churn";
  EXPECT_TRUE(system.verify_trees()) << "trees broken after churn";

  // Every surviving item must still be reachable (graceful leaves moved
  // their load; only crashed peers lost data).
  std::set<std::uint64_t> surviving;
  for (const PeerIndex p : system.live_peers()) {
    system.store_of(p).for_each([&](const proto::DataItem& item) {
      surviving.insert(item.id.value());
    });
  }
  int failures = 0;
  int issued = 0;
  const auto live = system.live_peers();
  ASSERT_FALSE(live.empty());
  for (const auto& item : corpus) {
    if (surviving.count(item.id.value()) == 0) continue;  // crash-lost
    system.lookup_id(live[op.index(live.size())], item.id,
                     [&](proto::LookupResult r) { failures += !r.success; });
    ++issued;
  }
  arm_audit();
  world.sim.run_until(world.sim.now() + sim::SimTime::seconds(40));
  EXPECT_GT(issued, 0);
  // A small tolerance: lookups racing a concurrent rejoin can miss.
  if (failures > issued / 20) {
    flight.dump(std::cerr, "surviving items unreachable after churn");
  }
  EXPECT_LE(failures, issued / 20)
      << failures << "/" << issued << " surviving items unreachable";

  if (auditor) {
    EXPECT_GT(auditor->runs(), 0u);
    EXPECT_EQ(auditor->total_violations(), 0u)
        << auditor->last_failing_report().to_json().dump(2);
  }

  // The recorder ran the whole soak and stayed bounded.
  EXPECT_GT(flight.total_recorded(), flight.capacity());
  EXPECT_EQ(flight.size(), flight.capacity());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPs, ChurnSoak,
    ::testing::Values(SoakParams{1001, 0.3}, SoakParams{1002, 0.5},
                      SoakParams{1003, 0.7}, SoakParams{1004, 0.85},
                      SoakParams{1005, 0.5}, SoakParams{1006, 0.7}));

}  // namespace
}  // namespace hp2p::hybrid
