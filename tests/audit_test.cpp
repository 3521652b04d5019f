// OverlayAuditor tests: a quiescent system passes a strict audit cleanly;
// each white-box fault injector trips exactly its named invariant (and only
// that one); periodic lenient audits across a churn storm report zero
// violations; and the harness wiring surfaces audit counters in RunResult.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/fault_inject.hpp"
#include "audit/overlay_auditor.hpp"
#include "exp/harness.hpp"
#include "hybrid/hybrid_system.hpp"
#include "tests/test_util.hpp"
#include "workload/workload.hpp"

namespace hp2p::audit {
namespace {

using hybrid::FaultInjector;
using hybrid::HybridParams;
using hybrid::HybridSystem;
using hybrid::Role;
using testing::SimWorld;

/// Builds a small quiescent deployment: 8 t-peers, 24 s-peers, 60 items
/// stored and fully settled.  Every fault test starts from a state the
/// strict auditor certifies clean, so a post-injection violation is
/// attributable to the injection alone.
struct AuditFixture {
  explicit AuditFixture(std::uint64_t seed = 42, HybridParams params = {})
      : world{seed, 64},
        system{world.network, params, HostIndex{0}, world.rng} {
    for (int i = 0; i < 8; ++i) {
      peers.push_back(
          system.add_peer_with_role(world.next_host(), Role::kTPeer, {}));
    }
    world.sim.run();
    for (int i = 0; i < 24; ++i) {
      peers.push_back(
          system.add_peer_with_role(world.next_host(), Role::kSPeer, {}));
    }
    world.sim.run();
    Rng op = world.rng.fork(7);
    for (const auto& item : workload::uniform_corpus(60, seed)) {
      system.store_id(peers[op.index(peers.size())], item.id, item.key,
                      item.value);
    }
    world.sim.run();
  }

  /// Registered t-peers in registry (pid) order.
  [[nodiscard]] std::vector<PeerIndex> tpeers() const {
    std::vector<PeerIndex> out;
    for (const auto& [pid, t] : system.registry()) out.push_back(t);
    return out;
  }

  /// Any live joined s-peer satisfying `pred`, or kNoPeer.
  template <typename Pred>
  [[nodiscard]] PeerIndex find_speer(Pred pred) const {
    for (const PeerIndex p : peers) {
      if (system.role_of(p) != Role::kSPeer) continue;
      if (!system.is_alive(p) || !system.is_joined(p)) continue;
      if (pred(p)) return p;
    }
    return kNoPeer;
  }

  SimWorld world;
  HybridSystem system;
  std::vector<PeerIndex> peers;
};

AuditOptions strict() {
  AuditOptions o;
  o.strict = true;
  return o;
}

TEST(OverlayAuditor, QuiescentSystemPassesStrictAudit) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  const AuditReport report = auditor.run();
  EXPECT_TRUE(report.clean())
      << report.to_json().dump(2) << "\nstrict audit found violations";
  EXPECT_GT(report.checks_run, 100u);
  EXPECT_EQ(auditor.runs(), 1u);
  EXPECT_EQ(auditor.total_violations(), 0u);
}

TEST(OverlayAuditor, ReportJsonCarriesViolationStructure) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  const auto ts = fx.tpeers();
  FaultInjector::corrupt_successor(fx.system, ts[0], ts[0]);
  const AuditReport report = auditor.run();
  ASSERT_FALSE(report.clean());
  const std::string json = report.to_json().dump(2);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
  EXPECT_NE(json.find("\"invariant\""), std::string::npos);
  EXPECT_NE(json.find("\"expected\""), std::string::npos);
}

// --- Fault injection: each injector trips exactly its named invariant ------

TEST(FaultInjection, CorruptSuccessorTripsRingSymmetryOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  const auto ts = fx.tpeers();
  ASSERT_GE(ts.size(), 3u);
  const PeerIndex t = ts[0];
  // A wrong target that is neither t nor its true successor.
  PeerIndex wrong = kNoPeer;
  for (const PeerIndex c : ts) {
    if (c != t && c != fx.system.successor_of(t)) wrong = c;
  }
  ASSERT_NE(wrong, kNoPeer);
  FaultInjector::corrupt_successor(fx.system, t, wrong);

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(),
            std::vector<std::string>{"ring_successor_symmetry"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, CorruptSuccessorIdTripsIdCacheOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  FaultInjector::corrupt_successor_id(fx.system, fx.tpeers()[1]);

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"ring_id_cache"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, OvercapDegreeTripsDegreeCapOnly) {
  HybridParams params;
  params.delta = 2;  // low cap so a small s-network can exceed it
  AuditFixture fx{43, params};
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  bool injected = false;
  for (const PeerIndex root : fx.tpeers()) {
    if (FaultInjector::overcap_degree(fx.system, root, params.delta)) {
      injected = true;
      break;
    }
  }
  ASSERT_TRUE(injected) << "no s-network had enough movable leaves";

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"tree_degree_cap"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, MisplacedItemTripsPlacementOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  // A holder with data, and a t-peer root of a *different* s-network.
  PeerIndex holder = kNoPeer;
  for (const PeerIndex p : fx.peers) {
    if (!fx.system.store_of(p).empty()) holder = p;
  }
  ASSERT_NE(holder, kNoPeer);
  const PeerIndex holder_root = fx.system.role_of(holder) == Role::kTPeer
                                    ? holder
                                    : fx.system.tpeer_of(holder);
  PeerIndex recipient = kNoPeer;
  for (const PeerIndex t : fx.tpeers()) {
    if (t != holder_root) recipient = t;
  }
  ASSERT_NE(recipient, kNoPeer);
  ASSERT_TRUE(FaultInjector::misplace_item(fx.system, holder, recipient));

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"data_misplaced"})
      << report.to_json().dump(2);
  EXPECT_EQ(report.count("data_misplaced"), 1u);
}

TEST(FaultInjection, OrphanedStoredItemTripsDataOrphanedOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  const PeerIndex victim = fx.find_speer([&](PeerIndex p) {
    return fx.system.parent_of(p) != kNoPeer && !fx.system.store_of(p).empty();
  });
  ASSERT_NE(victim, kNoPeer) << "no attached s-peer holds data";
  ASSERT_TRUE(FaultInjector::orphan_stored_item(fx.system, victim));

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"data_orphaned"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, DroppedTreeEdgeTripsParentChildSymmetryOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  const PeerIndex child = fx.find_speer(
      [&](PeerIndex p) { return fx.system.parent_of(p) != kNoPeer; });
  ASSERT_NE(child, kNoPeer);
  ASSERT_TRUE(FaultInjector::drop_tree_edge(fx.system, child));

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(),
            std::vector<std::string>{"tree_parent_child_symmetry"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, OversizedFloodTtlTripsFloodBoundOnly) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  ASSERT_TRUE(auditor.run().clean());

  FaultInjector::flood_with_ttl(fx.system, fx.peers[0], 99);

  const AuditReport report = auditor.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"flood_ttl_bound"})
      << report.to_json().dump(2);
}

TEST(FaultInjection, NestedAuditorLeavesOuterFloodObserverInstalled) {
  AuditFixture fx;
  OverlayAuditor outer{fx.system, fx.world.network, fx.world.sim, strict()};
  const AuditReport baseline = outer.run();
  ASSERT_TRUE(baseline.clean());
  {
    OverlayAuditor inner{fx.system, fx.world.network, fx.world.sim, strict()};
    ASSERT_TRUE(inner.run().clean());
  }

  FaultInjector::flood_with_ttl(fx.system, fx.peers[0], 99);
  FaultInjector::flood_with_ttl(fx.system, fx.peers[0],
                                fx.system.params().ttl);

  const AuditReport report = outer.run();
  EXPECT_EQ(report.invariants(), std::vector<std::string>{"flood_ttl_bound"})
      << report.to_json().dump(2);
  EXPECT_EQ(report.checks_run, baseline.checks_run + 2);
}

TEST(FaultInjection, InBoundFloodTtlStaysClean) {
  AuditFixture fx;
  OverlayAuditor auditor{fx.system, fx.world.network, fx.world.sim, strict()};
  FaultInjector::flood_with_ttl(fx.system, fx.peers[0],
                                fx.system.params().ttl);
  EXPECT_TRUE(auditor.run().clean());
}

// --- Lenient mode under churn ----------------------------------------------

TEST(OverlayAuditor, PeriodicLenientAuditStaysCleanAcrossChurn) {
  SimWorld world{77, 128};
  HybridParams params;
  params.ps = 0.6;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridSystem system{world.network, params, HostIndex{0}, world.rng};
  OverlayAuditor auditor{system, world.network, world.sim};
  auditor.set_period(sim::SimTime::millis(500));

  std::vector<PeerIndex> peers;
  for (std::size_t i = 0; i < 40; ++i) {
    const Role role = i < 16 ? Role::kTPeer : Role::kSPeer;
    world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 40),
        [&, role] {
          peers.push_back(system.add_peer_with_role(world.next_host(), role, {}));
        });
  }
  auditor.ensure_running();
  world.sim.run();

  Rng op = world.rng.fork(3);
  for (const auto& item : workload::uniform_corpus(80, 77)) {
    system.store_id(peers[op.index(peers.size())], item.id, item.key,
                    item.value);
  }
  auditor.ensure_running();
  world.sim.run();
  system.start_failure_detection();

  // Interleaved joins, leaves and crashes while periodic audits fire.
  for (int i = 0; i < 20; ++i) {
    world.sim.schedule_after(
        sim::SimTime::millis(300 + static_cast<std::int64_t>(i) * 500), [&] {
          const double dice = op.uniform01();
          if (dice < 0.4) {
            const Role role = op.chance(0.4) ? Role::kTPeer : Role::kSPeer;
            peers.push_back(
                system.add_peer_with_role(world.next_host(), role, {}));
            return;
          }
          for (int attempt = 0; attempt < 100; ++attempt) {
            const PeerIndex p = peers[op.index(peers.size())];
            if (!system.is_joined(p) || !system.is_alive(p)) continue;
            if (dice < 0.8) {
              system.leave(p);
            } else {
              system.crash(p);
            }
            return;
          }
        });
  }
  auditor.ensure_running();
  world.sim.run_until(world.sim.now() + sim::SimTime::seconds(40));

  EXPECT_GT(auditor.runs(), 10u) << "periodic audit never fired";
  EXPECT_EQ(auditor.total_violations(), 0u)
      << auditor.last_report().to_json().dump(2);
}

// --- Harness wiring ---------------------------------------------------------

TEST(OverlayAuditor, HarnessReportsAuditCounters) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.num_peers = 50;
  cfg.num_items = 80;
  cfg.num_lookups = 60;
  cfg.hybrid.ps = 0.7;
  cfg.audit_period = sim::SimTime::millis(500);
  const exp::RunResult result = exp::run_hybrid_experiment(cfg);
  EXPECT_GT(result.audit_runs, 0u);
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_GT(result.lookups.succeeded, 0u);
}

TEST(OverlayAuditor, HarnessAuditOffByDefault) {
  exp::RunConfig cfg;
  cfg.seed = 5;
  cfg.num_peers = 30;
  cfg.num_items = 20;
  cfg.num_lookups = 20;
  const exp::RunResult result = exp::run_hybrid_experiment(cfg);
#ifdef NDEBUG
  EXPECT_EQ(result.audit_runs, 0u);
#else
  // Debug builds always audit phase boundaries.
  EXPECT_GT(result.audit_runs, 0u);
#endif
  EXPECT_EQ(result.audit_violations, 0u);
}

}  // namespace
}  // namespace hp2p::audit
