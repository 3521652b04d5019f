// Tests for the hybrid system: construction invariants, join/leave/crash
// protocols, data placement, lookup behaviour, and the Section 5
// enhancements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "audit/fault_inject.hpp"
#include "common/alloc_stats.hpp"
#include "common/hashing.hpp"
#include "common/ring_math.hpp"
#include "hybrid/hybrid_system.hpp"
#include "stats/profiler.hpp"
#include "tests/test_util.hpp"

namespace hp2p::hybrid {
namespace {

using testing::SimWorld;

/// Builds a hybrid system of `n` peers with an exact t/s split derived from
/// params.ps.  Joins are staggered; the simulation drains between batches so
/// the build is deterministic but still exercises some concurrency.
struct HybridFixture {
  explicit HybridFixture(std::uint64_t seed, HybridParams params,
                         std::uint32_t hosts = 200,
                         proto::OverlayNetworkOptions net_opts = {})
      : world(seed, hosts, net_opts),
        system(world.network, params, HostIndex{0}, world.rng) {}

  void build(std::size_t n, bool tpeers_first = false) {
    const double ps = system.params().ps;
    auto n_t = static_cast<std::size_t>(
        std::max(1.0, (1.0 - ps) * static_cast<double>(n) + 0.5));
    n_t = std::min(n_t, n);
    std::vector<Role> roles(n, Role::kSPeer);
    for (std::size_t i = 0; i < n_t; ++i) roles[i] = Role::kTPeer;
    if (!tpeers_first) {
      // First peer must seed the ring; shuffle the rest.
      std::vector<Role> tail(roles.begin() + 1, roles.end());
      world.rng.shuffle(tail);
      std::copy(tail.begin(), tail.end(), roles.begin() + 1);
    }

    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Role role = roles[i];
      world.sim.schedule_after(
          sim::SimTime::millis(static_cast<std::int64_t>(i) * 40), [&, role] {
            peers.push_back(system.add_peer_with_role(
                world.next_host(), role,
                [&](proto::JoinResult r) {
                  ++completed;
                  join_results.push_back(r);
                }));
          });
    }
    world.sim.run();
    ASSERT_EQ(completed, n) << "not every join completed";
  }

  /// Stores `count` uniform-keyed items from round-robin origins; returns
  /// the keys.
  std::vector<std::string> populate(std::size_t count) {
    std::vector<std::string> keys;
    std::size_t done_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back("key-" + std::to_string(i));
      const PeerIndex origin = peers[i % peers.size()];
      system.store(origin, keys.back(), i, [&] { ++done_count; });
    }
    world.sim.run();
    EXPECT_EQ(done_count, count);
    return keys;
  }

  SimWorld world;
  HybridSystem system;
  std::vector<PeerIndex> peers;
  std::vector<proto::JoinResult> join_results;
};

HybridParams defaults() {
  HybridParams p;
  p.ps = 0.5;
  p.delta = 3;
  p.ttl = 8;
  return p;
}

// --- Construction invariants ---------------------------------------------------

TEST(Hybrid, BuildProducesValidRingAndTrees) {
  HybridFixture f{41, defaults()};
  f.build(60);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_TRUE(f.system.verify_trees());
  EXPECT_EQ(f.system.num_tpeers() + f.system.num_speers(), 60u);
}

TEST(Hybrid, RoleSplitMatchesPs) {
  HybridFixture f{42, defaults()};
  f.build(60);
  EXPECT_NEAR(static_cast<double>(f.system.num_tpeers()), 30.0, 1.0);
  EXPECT_NEAR(static_cast<double>(f.system.num_speers()), 30.0, 1.0);
}

TEST(Hybrid, PsZeroDegeneratesToPureRing) {
  auto p = defaults();
  p.ps = 0.0;
  HybridFixture f{43, p};
  f.build(30);
  EXPECT_EQ(f.system.num_tpeers(), 30u);
  EXPECT_EQ(f.system.num_speers(), 0u);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, HighPsYieldsLargeSNetworks) {
  auto p = defaults();
  p.ps = 0.9;
  HybridFixture f{44, p};
  f.build(50);
  EXPECT_NEAR(static_cast<double>(f.system.num_tpeers()), 5.0, 1.0);
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, SPeersInheritTPeerPid) {
  HybridFixture f{45, defaults()};
  f.build(40);
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      EXPECT_EQ(f.system.pid_of(p),
                f.system.pid_of(f.system.tpeer_of(p)));
    }
  }
}

TEST(Hybrid, TreeDegreeRespectsDelta) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 3;
  HybridFixture f{46, params};
  f.build(60);
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;  // cp link
    EXPECT_LE(degree, params.delta) << "peer " << p.value();
  }
}

TEST(Hybrid, SegmentsPartitionTheRing) {
  HybridFixture f{47, defaults()};
  f.build(40);
  // Each t-peer's segment is (pred, self]; walking successors the segments
  // must tile the whole id space.
  std::uint64_t covered = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    covered += ring::distance_cw(lo.value(), hi.value());
  }
  EXPECT_EQ(covered, kRingSize);
}

TEST(Hybrid, JoinLatencyMeasured) {
  HybridFixture f{48, defaults()};
  f.build(30);
  ASSERT_EQ(f.join_results.size(), 30u);
  // All but the seed require at least a server round trip.
  for (std::size_t i = 1; i < f.join_results.size(); ++i) {
    EXPECT_GT(f.join_results[i].latency.as_micros(), 0);
  }
}

TEST(Hybrid, SmallestSNetworkAssignmentBalances) {
  // With the ring in place first, smallest-first assignment must keep the
  // s-network sizes within a couple of peers of each other.  (Interleaved
  // t-joins necessarily skew sizes: peers assigned before a t-peer exists
  // cannot retroactively move.)
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{49, params};
  f.build(50, /*tpeers_first=*/true);
  std::vector<std::size_t> sizes;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer) {
      sizes.push_back(f.system.snetwork_members(p).size());
    }
  }
  ASSERT_FALSE(sizes.empty());
  const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*mx - *mn, 3u) << "s-network sizes spread too far";
}

// --- Data placement ----------------------------------------------------------------

TEST(Hybrid, StoreKeepsLocalSegmentDataAtOrigin) {
  HybridFixture f{50, defaults()};
  f.build(30);
  // Find a peer and a data id inside its own segment.
  const PeerIndex origin = f.peers[3];
  const auto [lo, hi] = f.system.segment_of(f.system.tpeer_of(origin));
  const DataId id{ring::midpoint_cw(lo.value(), hi.value())};
  bool done = false;
  f.system.store_id(origin, id, "local", 1, [&] { done = true; });
  f.world.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NE(f.system.store_of(origin).find(id), nullptr);
}

TEST(Hybrid, StoreRoutesCrossSegmentDataToOwnerSNetwork) {
  HybridFixture f{51, defaults()};
  f.build(30);
  std::size_t placed = 0;
  for (int i = 0; i < 50; ++i) {
    f.system.store(f.peers[static_cast<std::size_t>(i) % f.peers.size()],
                   "x" + std::to_string(i), 1, [&] { ++placed; });
  }
  f.world.sim.run();
  EXPECT_EQ(placed, 50u);
  EXPECT_EQ(f.system.total_items(), 50u);
  // Every item must live inside the s-network that owns its id.
  for (const auto p : f.peers) {
    const PeerIndex my_root = f.system.tpeer_of(p);
    f.system.store_of(p).for_each([&](const proto::DataItem& item) {
      EXPECT_EQ(f.system.owner_tpeer(item.id), my_root)
          << "item misplaced at peer " << p.value();
    });
  }
}

TEST(Hybrid, Scheme1ConcentratesDataAtTPeers) {
  auto params = defaults();
  params.ps = 0.8;
  params.placement = PlacementScheme::kTPeerStores;
  HybridFixture f{52, params};
  f.build(40);
  f.populate(120);
  std::size_t at_tpeers = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer) {
      at_tpeers += f.system.store_of(p).size();
    }
  }
  // Under scheme 1 only locally generated items can sit at s-peers.
  EXPECT_GT(static_cast<double>(at_tpeers), 0.7 * 120);
}

TEST(Hybrid, Scheme2SpreadsDataAcrossSNetworks) {
  auto params = defaults();
  params.ps = 0.8;
  params.placement = PlacementScheme::kRandomSpread;
  HybridFixture f{53, params};
  f.build(40);
  f.populate(200);
  std::size_t at_speers = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      at_speers += f.system.store_of(p).size();
    }
  }
  EXPECT_GT(at_speers, 40u) << "scheme 2 left everything at t-peers";
}

TEST(Hybrid, Scheme2LeavesFewerEmptyPeersThanScheme1) {
  // The headline contrast of Fig. 4.
  auto run = [](PlacementScheme scheme) {
    auto params = defaults();
    params.ps = 0.8;
    params.placement = scheme;
    HybridFixture f{54, params};
    f.build(40);
    f.populate(200);
    const auto counts = f.system.items_per_peer();
    return static_cast<double>(
               std::count(counts.begin(), counts.end(), 0u)) /
           static_cast<double>(counts.size());
  };
  const double empty1 = run(PlacementScheme::kTPeerStores);
  const double empty2 = run(PlacementScheme::kRandomSpread);
  EXPECT_LT(empty2, empty1);
}

// --- Lookup ---------------------------------------------------------------------------

TEST(Hybrid, LookupFindsAllStoredKeys) {
  HybridFixture f{55, defaults()};
  f.build(40);
  const auto keys = f.populate(80);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 80);
}

TEST(Hybrid, LookupMissingKeyTimesOut) {
  HybridFixture f{56, defaults()};
  f.build(20);
  bool called = false;
  const auto t0 = f.world.sim.now();
  f.system.lookup(f.peers[0], "missing", [&](proto::LookupResult r) {
    called = true;
    EXPECT_FALSE(r.success);
  });
  f.world.sim.run();
  EXPECT_TRUE(called);
  EXPECT_GE((f.world.sim.now() - t0).as_micros(),
            defaults().lookup_timeout.as_micros());
}

TEST(Hybrid, LookupReportsHopsAndContacts) {
  HybridFixture f{57, defaults()};
  f.build(40);
  const auto keys = f.populate(40);
  f.world.sim.run();
  std::uint64_t total_contacted = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i + 11) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) {
                      if (r.success) total_contacted += r.peers_contacted;
                    });
  }
  f.world.sim.run();
  EXPECT_GT(total_contacted, 0u);
}

TEST(Hybrid, TinyTtlRaisesFailures) {
  auto run = [](unsigned ttl) {
    auto params = defaults();
    params.ps = 0.9;
    params.ttl = ttl;
    params.lookup_timeout = sim::SimTime::seconds(3);
    HybridFixture f{58, params};
    f.build(60);
    const auto keys = f.populate(80);
    int failures = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f.system.lookup(f.peers[(i * 13) % f.peers.size()], keys[i],
                      [&](proto::LookupResult r) { failures += !r.success; });
    }
    f.world.sim.run();
    return failures;
  };
  const int fail_ttl1 = run(1);
  const int fail_ttl8 = run(8);
  EXPECT_GE(fail_ttl1, fail_ttl8);
  EXPECT_GT(fail_ttl1, 0);
}

TEST(Hybrid, RefloodRecoversDeepLocalItems) {
  auto params = defaults();
  params.ps = 0.9;
  params.ttl = 1;
  params.reflood_on_timeout = true;
  params.lookup_timeout = sim::SimTime::seconds(6);
  HybridFixture f{59, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  // Re-flooding with doubled TTL must beat the plain TTL=1 run.
  auto params2 = params;
  params2.reflood_on_timeout = false;
  HybridFixture g{59, params2};
  g.build(40);
  const auto keys2 = g.populate(60);
  int successes2 = 0;
  for (std::size_t i = 0; i < keys2.size(); ++i) {
    g.system.lookup(g.peers[(i * 3) % g.peers.size()], keys2[i],
                    [&](proto::LookupResult r) { successes2 += r.success; });
  }
  g.world.sim.run();
  EXPECT_GE(successes, successes2);
}

// Shared setup for the two reflood-regression tests: a system whose biggest
// s-network root owns a known item held below the root, plus a fault window
// that eats query traffic long enough to kill the first flood but not the
// armed re-flood (which fires at lookup_timeout / 2).
namespace reflood_regression {

constexpr auto kDropWindow = sim::SimTime::seconds(2);

PeerIndex biggest_root(HybridFixture& f) {
  PeerIndex root = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer || !f.system.is_joined(p)) {
      continue;
    }
    if (root == kNoPeer || f.system.snetwork_members(p).size() >
                               f.system.snetwork_members(root).size()) {
      root = p;
    }
  }
  return root;
}

bool holds(const HybridFixture& f, PeerIndex p, DataId id) {
  return f.system.store_of(p).find(id) != nullptr;
}

HybridParams reflood_params(bool reflood) {
  auto params = defaults();
  params.ps = 0.9;
  params.reflood_on_timeout = reflood;
  params.lookup_timeout = sim::SimTime::seconds(6);
  // These scenarios drop query floods, not carriers: keep the ring-retry
  // hardening (and its end-to-end reroute, which would re-run the whole
  // lookup after the drop window closes) out of the picture so that
  // reflood_on_timeout stays the only discriminating variable.
  params.ring_retry_limit = 0;
  return params;
}

}  // namespace reflood_regression

TEST(Hybrid, RefloodRecoversLocalLookupFromQueryLossWindow) {
  using namespace reflood_regression;
  auto run = [](bool reflood) {
    HybridFixture f{61, reflood_params(reflood)};
    f.build(40, /*tpeers_first=*/true);
    const PeerIndex root = biggest_root(f);
    if (root == kNoPeer) {
      ADD_FAILURE() << "no t-peer with an s-network";
      return false;
    }
    // The root's own pid is always inside its segment (pred, pid].
    const DataId id{f.system.pid_of(root).value()};
    f.system.store_id(f.peers[0], id, "reflood-local", 1);
    f.world.sim.run();
    // Local-segment origin: a member of the root's s-network that does not
    // hold the item itself.
    PeerIndex origin = kNoPeer;
    for (const PeerIndex m : f.system.snetwork_members(root)) {
      if (m != root && !holds(f, m, id)) {
        origin = m;
        break;
      }
    }
    if (origin == kNoPeer) {
      ADD_FAILURE() << "no non-holding s-network member to look up from";
      return false;
    }
    const sim::SimTime window_end = f.world.sim.now() + kDropWindow;
    f.world.network.set_fault([&f, window_end](PeerIndex, PeerIndex,
                                                proto::TrafficClass cls,
                                                std::uint32_t) {
      proto::FaultAction a;
      a.drop = cls == proto::TrafficClass::kQuery &&
               f.world.sim.now() < window_end;
      return a;
    });
    bool success = false;
    f.system.lookup_id(origin, id,
                       [&success](proto::LookupResult r) {
                         success = r.success;
                       });
    f.world.sim.run();
    return success;
  };
  EXPECT_TRUE(run(true)) << "re-flood should recover the dropped flood";
  EXPECT_FALSE(run(false)) << "without re-flood the lookup must time out";
}

TEST(Hybrid, RefloodRecoversRemoteLookupFromOwnerFloodLoss) {
  using namespace reflood_regression;
  auto run = [](bool reflood) {
    HybridFixture f{62, reflood_params(reflood)};
    f.build(40, /*tpeers_first=*/true);
    const PeerIndex owner_root = biggest_root(f);
    if (owner_root == kNoPeer) {
      ADD_FAILURE() << "no t-peer with an s-network";
      return false;
    }
    // Store from outside the owner's s-network (a storer inside the
    // owner's segment would just keep the item locally) so items route to
    // the owner and spread down its tree.
    PeerIndex storer = kNoPeer;
    for (const auto p : f.peers) {
      if (f.system.is_joined(p) && f.system.role_of(p) == Role::kSPeer &&
          f.system.tpeer_of(p) != owner_root) {
        storer = p;
        break;
      }
    }
    if (storer == kNoPeer) {
      ADD_FAILURE() << "no storer outside the owner's s-network";
      return false;
    }
    // Store candidates in the owner's segment until one is spread below
    // the owner (the owner keeping a copy would answer without flooding).
    const auto [seg_lo, seg_hi] = f.system.segment_of(owner_root);
    DataId id{};
    bool found = false;
    int stored = 0;
    int held_by_owner = 0;
    for (std::uint64_t k = 0; k < 24 && !found; ++k) {
      const DataId candidate{ring::reduce(seg_hi.value() - k)};
      if (!ring::in_arc_open_closed(candidate.value(), seg_lo.value(),
                                    seg_hi.value())) {
        continue;
      }
      ++stored;
      f.system.store_id(storer, candidate,
                        "reflood-remote-" + std::to_string(k), k);
      f.world.sim.run();
      if (holds(f, owner_root, candidate)) {
        ++held_by_owner;
      } else {
        id = candidate;
        found = true;
      }
    }
    if (!found) {
      ADD_FAILURE() << "every candidate stuck at the owner t-peer; stored="
                    << stored << " held_by_owner=" << held_by_owner
                    << " children=" << f.system.children_of(owner_root).size()
                    << " members="
                    << f.system.snetwork_members(owner_root).size();
      return false;
    }
    // Remote origin: an s-peer from a different s-network.
    PeerIndex origin = kNoPeer;
    for (const auto p : f.peers) {
      if (f.system.is_joined(p) && f.system.role_of(p) == Role::kSPeer &&
          f.system.tpeer_of(p) != owner_root && !holds(f, p, id)) {
        origin = p;
        break;
      }
    }
    if (origin == kNoPeer) {
      ADD_FAILURE() << "no remote s-peer origin";
      return false;
    }
    // Eat only the owner's outgoing query traffic: the ring forward still
    // reaches the owner, whose s-network flood is what the window kills.
    const sim::SimTime window_end = f.world.sim.now() + kDropWindow;
    f.world.network.set_fault(
        [&f, owner_root, window_end](PeerIndex from, PeerIndex,
                                     proto::TrafficClass cls, std::uint32_t) {
          proto::FaultAction a;
          a.drop = from == owner_root &&
                   cls == proto::TrafficClass::kQuery &&
                   f.world.sim.now() < window_end;
          return a;
        });
    bool success = false;
    f.system.lookup_id(origin, id,
                       [&success](proto::LookupResult r) {
                         success = r.success;
                       });
    f.world.sim.run();
    return success;
  };
  EXPECT_TRUE(run(true))
      << "the remote path must arm a re-flood at the owner";
  EXPECT_FALSE(run(false)) << "without re-flood the lookup must time out";
}

// --- Graceful leave -----------------------------------------------------------------

TEST(Hybrid, TPeerLeavePromotesSPeerAndKeepsRingSize) {
  auto params = defaults();
  params.ps = 0.7;
  HybridFixture f{60, params};
  f.build(40);
  const std::size_t tpeers_before = f.system.num_tpeers();
  // Pick a t-peer with a non-empty s-network.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 1) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const PeerId victim_pid = f.system.pid_of(victim);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), tpeers_before);
  EXPECT_TRUE(f.system.verify_ring());
  // The promoted peer inherits the exact ring position.
  bool pid_alive = false;
  for (const auto p : f.peers) {
    if (p != victim && f.system.is_joined(p) &&
        f.system.role_of(p) == Role::kTPeer &&
        f.system.pid_of(p) == victim_pid) {
      pid_alive = true;
    }
  }
  EXPECT_TRUE(pid_alive);
}

TEST(Hybrid, TPeerLeaveTransfersData) {
  auto params = defaults();
  params.ps = 0.7;
  HybridFixture f{61, params};
  f.build(40);
  f.populate(100);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 1) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before);
}

TEST(Hybrid, TreeWalksVisitEachMemberOnceUnderChildListCycle) {
  // Two identical worlds; one gets a child-list cycle among the s-peers of
  // a leaving t-peer.  Walks must see each member once, and the promotion
  // must send the cyclic world no more tpeer refreshes than the acyclic one.
  auto params = defaults();
  params.ps = 0.9;
  params.delta = 2;
  HybridFixture plain{63, params};
  HybridFixture looped{63, params};
  plain.build(60);
  looped.build(60);
  PeerIndex root = kNoPeer;
  std::size_t largest = 0;
  for (const auto p : looped.peers) {
    const std::size_t size = looped.system.snetwork_members(p).size();
    if (looped.system.role_of(p) == Role::kTPeer && size > largest) {
      root = p;
      largest = size;
    }
  }
  ASSERT_NE(root, kNoPeer);
  const auto members = looped.system.snetwork_members(root);

  // The acyclic twin leaves first, which names the heir both worlds pick.
  const auto& plain_stats = plain.world.network.stats();
  const std::uint64_t plain_before = plain_stats.messages_sent;
  plain.system.leave(root);
  const std::uint64_t plain_sent = plain_stats.messages_sent - plain_before;
  PeerIndex heir = kNoPeer;
  for (const auto m : members) {
    if (m != root && plain.system.role_of(m) == Role::kTPeer) heir = m;
  }
  ASSERT_NE(heir, kNoPeer);

  // An s-peer with a child, neither of them the heir, closes the cycle.
  PeerIndex upper = kNoPeer;
  PeerIndex lower = kNoPeer;
  for (const auto m : members) {
    if (m == root || m == heir || upper != kNoPeer) continue;
    for (const auto c : looped.system.children_of(m)) {
      if (c != heir) {
        upper = m;
        lower = c;
        break;
      }
    }
  }
  ASSERT_NE(upper, kNoPeer) << "no two-level subtree beside the heir";
  FaultInjector::close_child_cycle(looped.system, upper, lower);

  const auto walked = looped.system.snetwork_members(root);
  EXPECT_EQ(walked, members);
  auto sorted = walked;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  // Back-to-back walks reuse the marks under a fresh epoch.
  EXPECT_EQ(looped.system.snetwork_members(root), members);
  // Across the epoch wrap: the last epoch, the wrap to a cleared epoch 1,
  // and a second wrap over marks stamped 1 that the clear must drop.
  constexpr auto kMaxEpoch = std::numeric_limits<std::uint32_t>::max();
  FaultInjector::set_walk_epoch(looped.system, kMaxEpoch - 1);
  EXPECT_EQ(looped.system.snetwork_members(root), members);
  EXPECT_EQ(looped.system.snetwork_members(root), members);
  FaultInjector::set_walk_epoch(looped.system, kMaxEpoch);
  EXPECT_EQ(looped.system.snetwork_members(root), members);

  const auto& looped_stats = looped.world.network.stats();
  const std::uint64_t looped_before = looped_stats.messages_sent;
  looped.system.leave(root);
  EXPECT_EQ(looped.system.role_of(heir), Role::kTPeer);
  EXPECT_EQ(looped_stats.messages_sent - looped_before, plain_sent)
      << "the cycle changed the promotion's message count";
  looped.world.sim.run();
  for (const auto m : members) {
    if (m != root) {
      EXPECT_EQ(looped.system.tpeer_of(m), heir) << m;
    }
  }
}

TEST(Hybrid, LonerTPeerLeaveShrinksRing) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{62, params};
  f.build(20);
  f.populate(50);
  const std::size_t before_items = f.system.total_items();
  f.system.leave(f.peers[7]);
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 19u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.total_items(), before_items);  // loaddump to successor
}

TEST(Hybrid, SPeerLeaveRejoinsOrphans) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 2;  // deep trees -> leaves have parents with children
  HybridFixture f{63, params};
  f.build(50);
  // Find an s-peer with children.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        !f.system.children_of(p).empty()) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const auto orphans = f.system.children_of(victim);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_FALSE(f.system.is_joined(victim));
  for (const auto o : orphans) {
    EXPECT_TRUE(f.system.is_joined(o)) << "orphan " << o.value();
  }
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, SPeerLeaveTransfersLoad) {
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{64, params};
  f.build(40);
  f.populate(150);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before);
}

TEST(Hybrid, SPeerLeaveSurvivesDeadHeirMidHandover) {
  // Regression: the graceful-leave handover used to be fire-and-forget; if
  // the chosen heir (the leaver's cp) crashed before the kData transfer
  // landed, the leaver's items vanished silently.  The sender now waits for
  // an ack and re-hands the load to the next live candidate.
  auto params = defaults();
  params.ps = 0.9;  // single t-peer, deep tree
  params.delta = 2;
  HybridFixture f{68, params};
  f.build(10);
  ASSERT_EQ(f.system.num_tpeers(), 1u);
  // An s-peer whose cp is itself an s-peer: that parent is the handover's
  // first-choice heir.
  PeerIndex leaver = kNoPeer;
  for (const auto p : f.peers) {
    const PeerIndex cp = f.system.parent_of(p);
    if (f.system.role_of(p) == Role::kSPeer && cp != kNoPeer &&
        f.system.role_of(cp) == Role::kSPeer) {
      leaver = p;
      break;
    }
  }
  ASSERT_NE(leaver, kNoPeer);
  const PeerIndex heir = f.system.parent_of(leaver);
  // One item, held by the leaver (single segment -> stores stay local).
  f.system.store_id(leaver, DataId{12345}, "survivor", 7);
  f.world.sim.run();
  ASSERT_NE(f.system.store_of(leaver).find(DataId{12345}), nullptr);
  // The heir crashes; the leave starts before anyone could have noticed.
  f.system.crash(heir);
  f.system.leave(leaver);
  f.world.sim.run();
  EXPECT_FALSE(f.system.is_joined(leaver));
  bool held = false;
  for (const auto p : f.peers) {
    if (!f.system.is_alive(p) || !f.system.is_joined(p)) continue;
    held |= f.system.store_of(p).find(DataId{12345}) != nullptr;
  }
  EXPECT_TRUE(held) << "handover to a dead heir lost the item";
  EXPECT_EQ(f.system.total_items(), 1u);
}

// --- Crash handling ------------------------------------------------------------------

TEST(Hybrid, CrashLosesOnlyTheVictimsData) {
  HybridFixture f{65, defaults()};
  f.build(30);
  f.populate(100);
  const std::size_t before = f.system.total_items();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const std::size_t lost = f.system.store_of(victim).size();
  f.system.crash(victim);
  f.world.sim.run();
  EXPECT_EQ(f.system.total_items(), before - lost);
}

TEST(Hybrid, CrashedTPeerReplacedByOrphanCompetition) {
  auto params = defaults();
  params.ps = 0.7;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{66, params};
  f.build(40);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(3));

  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.children_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const std::size_t tpeers_before = f.system.num_tpeers();
  const PeerId victim_pid = f.system.pid_of(victim);
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));

  EXPECT_EQ(f.system.num_tpeers(), tpeers_before)
      << "no replacement was promoted";
  bool pid_taken = false;
  for (const auto p : f.peers) {
    if (p != victim && f.system.is_joined(p) &&
        f.system.role_of(p) == Role::kTPeer &&
        f.system.pid_of(p) == victim_pid) {
      pid_taken = true;
    }
  }
  EXPECT_TRUE(pid_taken);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, CrashedSPeerChildrenRejoin) {
  auto params = defaults();
  params.ps = 0.85;
  params.delta = 2;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{67, params};
  f.build(50);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(2));

  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        !f.system.children_of(p).empty()) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const auto orphans = f.system.children_of(victim);
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));
  for (const auto o : orphans) {
    EXPECT_TRUE(f.system.is_joined(o));
    EXPECT_NE(f.system.parent_of(o), victim) << "stale connect point";
  }
}

TEST(Hybrid, LookupAfterCrashRecoveryFailsOnlyForLostData) {
  // With failure detection running, a crashed s-peer's subtree rejoins; the
  // only items that stay unreachable are the ones the victim itself held.
  auto params = defaults();
  params.lookup_timeout = sim::SimTime::seconds(5);
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{68, params};
  f.build(30);
  const auto keys = f.populate(60);  // before heartbeats so run() drains
  f.system.start_failure_detection();
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.store_of(p).size() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  std::set<std::string> lost_keys;
  f.system.store_of(victim).for_each(
      [&](const proto::DataItem& item) { lost_keys.insert(item.key); });
  f.system.crash(victim);
  // Let the HELLO timeouts fire and the orphans re-attach.
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));

  int wrong = 0;
  for (const auto& key : keys) {
    const bool expect_success = lost_keys.count(key) == 0;
    PeerIndex origin = f.peers[0];
    std::size_t i = 0;
    while (origin == victim) origin = f.peers[++i];
    f.system.lookup(origin, key, [&, expect_success](proto::LookupResult r) {
      wrong += (r.success != expect_success);
    });
  }
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(30));
  EXPECT_EQ(wrong, 0);
}

// --- Concurrency (Section 3.3) ---------------------------------------------------------

TEST(Hybrid, ConcurrentTJoinsKeepRingConsistent) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{69, params};
  f.build(5);
  // Fire 20 joins at the same instant; the join queueing must serialize
  // them into a valid ring.
  std::size_t completed = 0;
  for (int i = 0; i < 20; ++i) {
    f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
      f.peers.push_back(f.system.add_peer_with_role(
          f.world.next_host(), Role::kTPeer,
          [&](proto::JoinResult) { ++completed; }));
    });
  }
  f.world.sim.run();
  EXPECT_EQ(completed, 20u);
  EXPECT_EQ(f.system.num_tpeers(), 25u);
  EXPECT_TRUE(f.system.verify_ring());
}

TEST(Hybrid, ConcurrentSJoinsKeepTreesConsistent) {
  auto params = defaults();
  params.ps = 0.9;
  HybridFixture f{70, params};
  f.build(10);
  std::size_t completed = 0;
  for (int i = 0; i < 30; ++i) {
    f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
      f.peers.push_back(f.system.add_peer_with_role(
          f.world.next_host(), Role::kSPeer,
          [&](proto::JoinResult) { ++completed; }));
    });
  }
  f.world.sim.run();
  EXPECT_EQ(completed, 30u);
  EXPECT_TRUE(f.system.verify_trees());
}

TEST(Hybrid, JoinDuringLeaveSettlesConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{71, params};
  f.build(10);
  std::size_t completed = 0;
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[4]); });
  f.world.sim.schedule_after(sim::SimTime::millis(1), [&] {
    f.peers.push_back(f.system.add_peer_with_role(
        f.world.next_host(), Role::kTPeer,
        [&](proto::JoinResult) { ++completed; }));
  });
  f.world.sim.run();
  EXPECT_EQ(completed, 1u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.num_tpeers(), 10u);  // 10 - 1 + 1
}

TEST(Hybrid, ConcurrentRingLeavesSettleConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{218, params};
  f.build(16);
  f.populate(50);
  const std::size_t items_before = f.system.total_items();
  // Two non-adjacent loner t-peers leave at the same instant: their leave
  // triangles must interleave without corrupting the ring or losing data.
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[3]); });
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(f.peers[9]); });
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 14u);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.total_items(), items_before);
}

TEST(Hybrid, AdjacentRingLeavesSettleConsistently) {
  auto params = defaults();
  params.ps = 0.0;
  HybridFixture f{219, params};
  f.build(16);
  // Find two ring-adjacent peers: peer and its successor.
  // (Walk the build list and use pids.)
  PeerIndex a = f.peers[2];
  // Leave a, then its ring neighbour shortly after (overlapping triangles).
  f.world.sim.schedule_after(sim::SimTime::millis(1),
                             [&] { f.system.leave(a); });
  f.world.sim.schedule_after(sim::SimTime::millis(5),
                             [&] { f.system.leave(f.peers[5]); });
  f.world.sim.run();
  EXPECT_EQ(f.system.num_tpeers(), 14u);
  EXPECT_TRUE(f.system.verify_ring());
}

// --- Enhancements (Section 5) -----------------------------------------------------------

TEST(Hybrid, InterestBasedAssignmentGroupsByInterest) {
  auto params = defaults();
  params.ps = 0.8;
  params.interest_based = true;
  params.num_interests = 4;
  HybridFixture f{72, params};
  f.build(50);
  // Peers sharing an interest must share an s-network (same t-peer).
  std::map<std::uint32_t, std::set<std::uint32_t>> roots_by_interest;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      roots_by_interest[f.system.interest_of(p)].insert(
          f.system.tpeer_of(p).value());
    }
  }
  for (const auto& [interest, roots] : roots_by_interest) {
    EXPECT_EQ(roots.size(), 1u) << "interest " << interest << " split";
  }
}

TEST(Hybrid, TopologyAwareGroupsNearbyPeers) {
  auto params = defaults();
  params.ps = 0.8;
  params.topology_aware = true;
  params.num_landmarks = 8;
  HybridFixture base{73, defaults()};
  HybridFixture aware{73, params};
  auto mean_intra_latency = [](HybridFixture& f) {
    f.build(60);
    double total = 0;
    int count = 0;
    for (const auto p : f.peers) {
      if (f.system.role_of(p) != Role::kTPeer) continue;
      const auto members = f.system.snetwork_members(p);
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          total += static_cast<double>(
              f.world.underlay
                  .latency(f.world.network.host_of(members[i]),
                           f.world.network.host_of(members[j]))
                  .as_micros());
          ++count;
        }
      }
    }
    return count > 0 ? total / count : 0.0;
  };
  auto params_base = defaults();
  params_base.ps = 0.8;
  HybridFixture base2{73, params_base};
  const double base_latency = mean_intra_latency(base2);
  const double aware_latency = mean_intra_latency(aware);
  EXPECT_LT(aware_latency, base_latency)
      << "landmark binning did not reduce intra-s-network distance";
}

TEST(Hybrid, BypassLinksFormAndShortcut) {
  auto params = defaults();
  params.ps = 0.8;
  params.bypass_links = true;
  HybridFixture f{74, params};
  f.build(40);
  const auto keys = f.populate(60);
  // Stores already create bypass links (rule 2 of Section 5.4).
  const std::size_t links_after_stores = f.system.num_bypass_links();
  // A leaf s-peer (tree degree 1) can always accept bypass links.
  PeerIndex origin = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer &&
        f.system.children_of(p).empty()) {
      origin = p;
      break;
    }
  }
  ASSERT_NE(origin, kNoPeer);
  int round1_contacts = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(origin, keys[i], [&](proto::LookupResult r) {
      if (r.success) round1_contacts += static_cast<int>(r.peers_contacted);
    });
  }
  f.world.sim.run();
  EXPECT_GE(f.system.num_bypass_links(), links_after_stores);
  EXPECT_GT(f.system.num_bypass_links(), 0u);
  // Second round from the same origin: bypass links shortcut the ring.
  int round2_contacts = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(origin, keys[i], [&](proto::LookupResult r) {
      if (r.success) round2_contacts += static_cast<int>(r.peers_contacted);
    });
  }
  f.world.sim.run();
  EXPECT_LT(round2_contacts, round1_contacts);
}

TEST(Hybrid, BypassLinksExpire) {
  auto params = defaults();
  params.ps = 0.8;
  params.bypass_links = true;
  params.bypass_lifetime = sim::SimTime::seconds(1);
  HybridFixture f{75, params};
  f.build(30);
  const auto keys = f.populate(40);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[0], keys[i], [](proto::LookupResult) {});
  }
  f.world.sim.run();
  const std::size_t links = f.system.num_bypass_links();
  EXPECT_GT(links, 0u);
  // After the lifetime passes, find_bypass treats them as dead; a new
  // lookup must go around the ring again (no assertion on count -- expired
  // links are pruned lazily, so we check behaviourally).
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));
  bool success = false;
  f.system.lookup(f.peers[0], keys[0],
                  [&](proto::LookupResult r) { success = r.success; });
  f.world.sim.run();
  EXPECT_TRUE(success);
}

TEST(Hybrid, StarTopologyKeepsDiameterTwo) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kStar;
  HybridFixture f{76, params};
  f.build(40);
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      EXPECT_EQ(f.system.parent_of(p), f.system.tpeer_of(p));
    }
  }
}

TEST(Hybrid, BitTorrentStyleLookupAvoidsFlooding) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kBitTorrent;
  HybridFixture f{77, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  std::uint64_t contacted = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) {
                      successes += r.success;
                      contacted += r.peers_contacted;
                    });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 60);
  // Tracker mode contacts: cp chain + ring + tracker + holder; far fewer
  // than flooding a whole s-network per lookup.
  EXPECT_LT(static_cast<double>(contacted) / 60.0, 10.0);
}

TEST(Hybrid, MeshStyleFloodsWithDuplicateSuppression) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kMesh;
  params.mesh_links = 3;
  HybridFixture f{78, params};
  f.build(40);
  const auto keys = f.populate(40);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_GT(successes, 30);
}

TEST(Hybrid, CapacityAwareRolesPreferFastTPeers) {
  auto params = defaults();
  params.ps = 0.6;
  params.capacity_aware_roles = true;
  HybridFixture f{79, params, 300};
  // Use server-picked roles (add_peer) rather than forced ones.
  std::size_t completed = 0;
  for (int i = 0; i < 90; ++i) {
    f.world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 40), [&] {
          f.peers.push_back(f.system.add_peer(
              f.world.next_host(), [&](proto::JoinResult) { ++completed; }));
        });
  }
  f.world.sim.run();
  ASSERT_EQ(completed, 90u);
  // Among t-peers, the high-capacity share must exceed the population share
  // (1/3).
  std::size_t t_total = 0;
  std::size_t t_high = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer && f.system.is_joined(p)) {
      ++t_total;
      const auto host = f.world.network.host_of(p);
      t_high +=
          (f.world.underlay.capacity(host) == net::CapacityClass::kHigh);
    }
  }
  ASSERT_GT(t_total, 0u);
  EXPECT_GT(static_cast<double>(t_high) / static_cast<double>(t_total), 0.40);
}

// --- Additional recovery / enhancement paths ---------------------------------------

TEST(Hybrid, LonerTPeerCrashRepairsRingViaServer) {
  // A crashed t-peer with an empty s-network has no orphans to compete for
  // its slot: its ring neighbours must report it and the server reconnects
  // them (server_handle_ring_repair).
  auto params = defaults();
  params.ps = 0.0;  // every t-peer is a loner
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{210, params};
  f.build(20);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(2));
  const PeerIndex victim = f.peers[7];
  f.system.crash(victim);
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(20));
  EXPECT_EQ(f.system.num_tpeers(), 19u);
  EXPECT_TRUE(f.system.verify_ring()) << "ring not repaired around loner";
}

TEST(Hybrid, LinkUsageConnectLetsFastPeersTakeMoreChildren) {
  auto params = defaults();
  params.ps = 0.9;
  params.delta = 2;
  params.link_usage_connect = true;
  HybridFixture f{211, params, 300};
  f.build(80);
  // Some peer must exceed the base cap thanks to its fast access link.
  unsigned max_degree = 0;
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;
    max_degree = std::max(max_degree, degree);
    // And nobody exceeds the scaled cap.
    const auto host = f.world.network.host_of(p);
    unsigned limit = params.delta;
    switch (f.world.underlay.capacity(host)) {
      case net::CapacityClass::kLow:
        break;
      case net::CapacityClass::kMedium:
        limit *= 2;
        break;
      case net::CapacityClass::kHigh:
        limit *= 3;
        break;
    }
    EXPECT_LE(degree, limit);
  }
  EXPECT_GT(max_degree, params.delta);
}

TEST(Hybrid, BitTorrentTrackerSurvivesTPeerLeave) {
  auto params = defaults();
  params.ps = 0.9;
  params.style = SNetworkStyle::kBitTorrent;
  HybridFixture f{212, params};
  f.build(40);
  const auto keys = f.populate(60);
  // Gracefully retire a t-peer with members; its tracker index must move to
  // the promoted heir.
  PeerIndex victim = kNoPeer;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) == Role::kTPeer &&
        f.system.snetwork_members(p).size() > 2) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.system.leave(victim);
  f.world.sim.run();
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    PeerIndex origin = f.peers[(i * 7) % f.peers.size()];
    if (origin == victim) origin = f.peers[(i * 7 + 1) % f.peers.size()];
    f.system.lookup(origin, keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, static_cast<int>(keys.size()))
      << "tracker index lost in the promotion";
}

TEST(Hybrid, LossyTransportDegradesButDoesNotWedge) {
  auto params = defaults();
  params.ttl = 8;
  params.lookup_timeout = sim::SimTime::seconds(5);
  proto::OverlayNetworkOptions lossy;
  lossy.loss_rate = 0.02;
  HybridFixture f{213, params, 200, lossy};
  // Builds can stall if a triangle message is lost; accept partial builds
  // and just require the system to remain usable and consistent.
  const double ps = params.ps;
  auto n_t = static_cast<std::size_t>(std::max(1.0, (1.0 - ps) * 40.0));
  std::vector<Role> roles(40, Role::kSPeer);
  for (std::size_t i = 0; i < n_t; ++i) roles[i] = Role::kTPeer;
  for (std::size_t i = 0; i < 40; ++i) {
    const Role role = roles[i];
    f.world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 60),
        [&, role] {
          f.peers.push_back(
              f.system.add_peer_with_role(f.world.next_host(), role, {}));
        });
  }
  f.world.sim.run();
  const auto live = f.system.live_peers();
  ASSERT_GT(live.size(), 10u);
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    f.system.store(live[static_cast<std::size_t>(i) % live.size()],
                   "lk" + std::to_string(i), 1);
  }
  f.world.sim.run();
  for (int i = 0; i < 40; ++i) {
    f.system.lookup(live[static_cast<std::size_t>(i * 3) % live.size()],
                    "lk" + std::to_string(i),
                    [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  EXPECT_EQ(done, 40) << "every lookup must resolve (success or timeout)";
  EXPECT_GT(f.world.network.stats().messages_lost, 0u);
}

TEST(Hybrid, QueryTrafficSubstitutesForHellos) {
  // Section 3.2.2: acknowledgments to data queries reset the HELLO timers,
  // so steady query traffic suppresses scheduled HELLO messages.
  auto run = [](bool with_queries) {
    auto params = defaults();
    params.ps = 0.8;
    params.hello_interval = sim::SimTime::millis(500);
    params.hello_timeout = sim::SimTime::millis(2000);
    HybridFixture f{214, params};
    f.build(30);
    const auto keys = f.populate(30);
    f.system.start_failure_detection();
    if (with_queries) {
      // Sustained lookups for 10 seconds.
      for (int i = 0; i < 100; ++i) {
        f.world.sim.schedule_after(
            sim::SimTime::millis(static_cast<std::int64_t>(i) * 100), [&, i] {
              f.system.lookup(
                  f.peers[static_cast<std::size_t>(i) % f.peers.size()],
                  keys[static_cast<std::size_t>(i) % keys.size()],
                  [](proto::LookupResult) {});
            });
      }
    }
    f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(10));
    return f.world.network.stats().class_messages(
        proto::TrafficClass::kHeartbeat);
  };
  const auto idle_hellos = run(false);
  const auto busy_hellos = run(true);
  // Acks replace some HELLOs but each ack is itself a heartbeat-class
  // message; the invariant is that the busy system does not flood more
  // heartbeat traffic than idle + the ack budget.
  EXPECT_GT(idle_hellos, 0u);
  EXPECT_LE(busy_hellos, idle_hellos * 2);
}

TEST(Hybrid, NoLivenessStampsWhileDetectionIsOff) {
  // Section 3.2.2 stamps are read only by heartbeats, so nothing writes
  // them before failure detection starts, however much joins and stores
  // talk to each other.
  auto params = defaults();
  params.style = SNetworkStyle::kMesh;
  HybridFixture f{216, params};
  f.build(40);
  f.populate(40);
  for (const PeerIndex p : f.peers) {
    EXPECT_EQ(FaultInjector::liveness_entries(f.system, p), 0u)
        << "peer " << p.value();
  }
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));
  const auto stamped = std::ranges::count_if(f.peers, [&f](PeerIndex p) {
    return FaultInjector::liveness_entries(f.system, p) != 0;
  });
  EXPECT_EQ(static_cast<std::size_t>(stamped), f.peers.size());
}

TEST(Hybrid, QuietTreeRunAllocatesNoFeatureState) {
  // Mesh links, bypass links and the cache live behind one pointer that a
  // peer fills on its first such write: a tree-style run with neither
  // bypass links nor caching, through joins, stores, lookups, a leave and
  // heartbeats, leaves every peer's pointer null.
  auto params = defaults();
  params.hello_interval = sim::SimTime::millis(500);
  HybridFixture f{218, params};
  f.build(40);
  const auto keys = f.populate(40);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [](proto::LookupResult) {});
  }
  f.world.sim.run();
  f.system.leave(f.peers.back());
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));
  for (const PeerIndex p : f.peers) {
    EXPECT_FALSE(FaultInjector::holds_extras(f.system, p))
        << "peer " << p.value();
  }
  // The mesh style writes its links there from the first join on.
  auto mesh = defaults();
  mesh.style = SNetworkStyle::kMesh;
  HybridFixture g{218, mesh};
  g.build(40);
  EXPECT_TRUE(std::ranges::any_of(g.peers, [&g](PeerIndex p) {
    return FaultInjector::holds_extras(g.system, p);
  }));
}

TEST(Hybrid, SettledHeartbeatsAllocateNothing) {
  // Once every peer has stamped its neighbours, a beat reuses the link
  // snapshot and the stamps it already holds: further hello intervals on a
  // quiescent world cost membership no allocation at all.
  auto params = defaults();
  params.style = SNetworkStyle::kMesh;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(2000);
  HybridFixture f{217, params};
  f.build(40);
  f.populate(40);
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));

  const std::uint64_t hellos_before =
      f.world.network.stats().class_messages(proto::TrafficClass::kHeartbeat);
  stats::Profiler prof;
  f.world.sim.add_observer(&prof);
  constexpr std::int64_t kIntervals = 8;
  f.world.sim.run_until(f.world.sim.now() +
                        sim::SimTime::millis(500 * kIntervals));
  f.world.sim.remove_observer(&prof);

  const auto membership = prof.component_total(sim::Component::kMembership);
  EXPECT_GE(f.world.network.stats().class_messages(
                proto::TrafficClass::kHeartbeat) -
                hellos_before,
            static_cast<std::size_t>(kIntervals) * f.peers.size());
  EXPECT_GT(membership.enters, 0u);
  EXPECT_EQ(membership.allocs, 0u)
      << membership.alloc_bytes << " B allocated over " << kIntervals
      << " settled hello intervals";
}

TEST(Hybrid, KeywordSearchRespectsTtl) {
  auto params = defaults();
  params.ps = 0.95;
  params.delta = 2;  // deep tree
  params.ttl = 1;    // keyword flood radius
  HybridFixture f{215, params};
  f.build(40);
  // Plant matches everywhere in one s-network.
  const PeerIndex origin = f.peers[10];
  const auto root = f.system.tpeer_of(origin);
  const auto members = f.system.snetwork_members(root);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto [lo, hi] = f.system.segment_of(root);
    f.system.store_id(members[i], DataId{ring::reduce(lo.value() + 1 + i)},
                      "ttltest-" + std::to_string(i), 1);
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword(origin, "ttltest", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            result = std::move(r);
                          });
  f.world.sim.run();
  // TTL=1 reaches only the origin's direct neighbours; a deep tree has
  // more members than that.
  EXPECT_LT(result.keys.size(), members.size());
  EXPECT_LE(result.peers_contacted, 3u);  // cp + at most delta-1 children
}

// --- Random-walk search (Sections 1/3.1) ----------------------------------------------

TEST(Hybrid, RandomWalkFindsLocalData) {
  auto params = defaults();
  params.ps = 0.9;
  params.s_search = SSearch::kRandomWalk;
  params.ttl = 30;
  params.walkers = 6;
  HybridFixture f{200, params};
  f.build(40);
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 5) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_GT(successes, 45) << "random walks should find most items";
}

TEST(Hybrid, SingleWalkerUsesFewerMessagesThanFloodOnBigTrees) {
  // A flood always covers the whole TTL ball; one walker stops at the first
  // hit.  The gap shows on big, well-mixed s-networks (random walks mix
  // poorly on trees, which is why the paper pairs walks with arbitrary
  // topologies).
  auto run = [](SSearch mode) {
    auto params = defaults();
    params.ps = 0.95;
    params.style = SNetworkStyle::kMesh;
    params.mesh_links = 3;
    params.s_search = mode;
    params.ttl = mode == SSearch::kFlood ? 10 : 40;
    params.walkers = 1;
    params.lookup_timeout = sim::SimTime::seconds(8);
    HybridFixture f{201, params};
    f.build(60);
    const auto keys = f.populate(60);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f.system.lookup(f.peers[(i * 3) % f.peers.size()], keys[i],
                      [](proto::LookupResult) {});
    }
    f.world.sim.run();
    return f.world.network.stats().class_messages(
        proto::TrafficClass::kQuery);
  };
  EXPECT_LT(run(SSearch::kRandomWalk), run(SSearch::kFlood));
}

// --- Section 7 caching scheme ------------------------------------------------------

TEST(Hybrid, CachingServesRepeatLookupsFromRequesters) {
  auto params = defaults();
  params.ps = 0.8;
  params.enable_caching = true;
  params.cache_capacity = 8;
  HybridFixture f{202, params};
  f.build(40);
  const auto keys = f.populate(20);
  // Round 1: everyone fetches the same hot key.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < f.peers.size(); i += 3) {
      f.system.lookup(f.peers[i], keys[0], [](proto::LookupResult) {});
    }
    f.world.sim.run();
  }
  EXPECT_GT(f.system.cache_hits(), 0u);
}

TEST(Hybrid, CachingReducesHotSpotLoad) {
  auto run = [](bool caching) {
    auto params = defaults();
    params.ps = 0.8;
    params.enable_caching = caching;
    HybridFixture f{203, params};
    f.build(40);
    const auto keys = f.populate(10);
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < f.peers.size(); i += 2) {
        f.system.lookup(f.peers[i], keys[0], [](proto::LookupResult) {});
      }
      f.world.sim.run();
    }
    return f.system.max_answers_served();
  };
  const auto hot_without = run(false);
  const auto hot_with = run(true);
  EXPECT_LT(hot_with, hot_without)
      << "caching should spread the hosting peer's load";
}

TEST(Hybrid, CacheEntriesExpire) {
  auto params = defaults();
  params.ps = 0.8;
  params.enable_caching = true;
  params.cache_ttl = sim::SimTime::seconds(1);
  HybridFixture f{204, params};
  f.build(30);
  const auto keys = f.populate(10);
  f.system.lookup(f.peers[2], keys[0], [](proto::LookupResult) {});
  f.world.sim.run();
  const auto hits_before = f.system.cache_hits();
  // Long after expiry, a fresh lookup must not be served from the stale
  // cache entry at the earlier requester.
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(30));
  bool success = false;
  f.system.lookup(f.peers[2], keys[0],
                  [&](proto::LookupResult r) { success = r.success; });
  f.world.sim.run();
  EXPECT_TRUE(success);
  // The origin's own cache is consulted only via try_answer at other peers;
  // its local expired entry cannot produce a hit.
  EXPECT_GE(f.system.cache_hits(), hits_before);
}

// --- Keyword / partial search (Section 5.3) -------------------------------------------

TEST(Hybrid, KeywordSearchFindsMatchesInOwnSNetwork) {
  auto params = defaults();
  params.ps = 0.9;
  params.ttl = 10;
  HybridFixture f{205, params};
  f.build(30);
  // Plant keyword-bearing items inside one s-network.
  const PeerIndex origin = f.peers[5];
  const auto members = f.system.snetwork_members(f.system.tpeer_of(origin));
  ASSERT_GE(members.size(), 3u);
  int planted = 0;
  for (std::size_t i = 0; i < members.size() && planted < 3; ++i, ++planted) {
    const auto [lo, hi] = f.system.segment_of(f.system.tpeer_of(origin));
    const DataId id{ring::midpoint_cw(lo.value(), hi.value()) +
                    static_cast<std::uint64_t>(planted)};
    f.system.store_id(members[i], id,
                      "holiday-video-" + std::to_string(planted), 1);
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  bool called = false;
  f.system.lookup_keyword(origin, "holiday", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            called = true;
                            result = std::move(r);
                          });
  f.world.sim.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result.keys.size(), 3u);
}

TEST(Hybrid, KeywordSearchIgnoresNonMatches) {
  auto params = defaults();
  params.ps = 0.8;
  HybridFixture f{206, params};
  f.build(30);
  f.populate(50);  // keys are "key-N", no "zebra" anywhere
  bool called = false;
  f.system.lookup_keyword(f.peers[3], "zebra", sim::SimTime::seconds(5),
                          [&](HybridSystem::KeywordResult r) {
                            called = true;
                            EXPECT_TRUE(r.keys.empty());
                          });
  f.world.sim.run();
  EXPECT_TRUE(called);
}

TEST(Hybrid, GlobalKeywordSearchReachesEverySNetwork) {
  auto params = defaults();
  params.ps = 0.8;
  params.ttl = 10;
  HybridFixture f{216, params};
  f.build(40);
  // Plant one matching item in every s-network (stored at the t-peer so
  // the ring walk alone suffices to see it).
  int planted = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    f.system.store_id(p, DataId{ring::midpoint_cw(lo.value(), hi.value())},
                      "global-hit-" + std::to_string(planted), 1);
    ++planted;
  }
  f.world.sim.run();
  ASSERT_GT(planted, 3);
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword_global(f.peers[5], "global-hit",
                                 sim::SimTime::seconds(60),
                                 [&](HybridSystem::KeywordResult r) {
                                   result = std::move(r);
                                 });
  f.world.sim.run();
  EXPECT_EQ(result.keys.size(), static_cast<std::size_t>(planted));
}

TEST(Hybrid, LocalKeywordSearchStaysLocal) {
  auto params = defaults();
  params.ps = 0.8;
  params.ttl = 10;
  HybridFixture f{217, params};
  f.build(40);
  int planted = 0;
  for (const auto p : f.peers) {
    if (f.system.role_of(p) != Role::kTPeer) continue;
    const auto [lo, hi] = f.system.segment_of(p);
    f.system.store_id(p, DataId{ring::midpoint_cw(lo.value(), hi.value())},
                      "local-only-" + std::to_string(planted), 1);
    ++planted;
  }
  f.world.sim.run();
  HybridSystem::KeywordResult result;
  f.system.lookup_keyword(f.peers[5], "local-only", sim::SimTime::seconds(10),
                          [&](HybridSystem::KeywordResult r) {
                            result = std::move(r);
                          });
  f.world.sim.run();
  // Only the requester's own s-network is searched.
  EXPECT_LE(result.keys.size(), 1u);
}

// --- Parameterized invariant sweep over p_s ----------------------------------------------

class HybridPsSweep : public ::testing::TestWithParam<double> {};

TEST_P(HybridPsSweep, InvariantsAndLookupsHoldAcrossPs) {
  auto params = defaults();
  params.ps = GetParam();
  params.ttl = 10;
  HybridFixture f{80 + static_cast<std::uint64_t>(GetParam() * 100), params};
  f.build(40);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_TRUE(f.system.verify_trees());
  const auto keys = f.populate(60);
  int successes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7 + 3) % f.peers.size()], keys[i],
                    [&](proto::LookupResult r) { successes += r.success; });
  }
  f.world.sim.run();
  EXPECT_EQ(successes, 60) << "lookup failures at ps=" << GetParam();
  EXPECT_EQ(f.system.total_items(), 60u);
}

INSTANTIATE_TEST_SUITE_P(PsValues, HybridPsSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.95));

// --- Parameterized sweep over delta -------------------------------------------------------

class HybridDeltaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HybridDeltaSweep, TreeDegreeCapHolds) {
  auto params = defaults();
  params.ps = 0.9;
  params.delta = GetParam();
  HybridFixture f{90 + GetParam(), params};
  f.build(50);
  EXPECT_TRUE(f.system.verify_trees());
  for (const auto p : f.peers) {
    unsigned degree = static_cast<unsigned>(f.system.children_of(p).size());
    if (f.system.role_of(p) == Role::kSPeer) ++degree;
    EXPECT_LE(degree, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, HybridDeltaSweep,
                         ::testing::Values(2u, 3u, 4u, 8u));

// --- Lookup edge cases -------------------------------------------------------

TEST(Hybrid, DetachedOrphanLookupFailsFast) {
  HybridFixture f{77, defaults()};
  f.build(30);
  const auto keys = f.populate(20);
  // A freshly added s-peer has neither a tree parent nor a t-peer until its
  // join completes; a lookup issued from it has no upward path and must
  // fail immediately instead of burning the whole lookup_timeout.
  const PeerIndex orphan =
      f.system.add_peer_with_role(f.world.next_host(), Role::kSPeer);
  bool called = false;
  proto::LookupResult res;
  f.system.lookup(orphan, keys[0], [&](proto::LookupResult r) {
    called = true;
    res = r;
  });
  EXPECT_TRUE(called) << "fast fail must not wait for the simulator";
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.fast_fail);

  proto::LookupStats stats;
  stats.record(res);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fast_failed, 1u);
}

TEST(Hybrid, CacheEntryExpiresExactlyAtDeadline) {
  auto params = defaults();
  params.enable_caching = true;
  params.cache_capacity = 8;
  params.cache_ttl = sim::SimTime::seconds(10);
  HybridFixture f{78, params};
  f.build(40);
  const auto keys = f.populate(40);

  // Pick a key the origin neither stores nor owns, so a successful lookup
  // caches it at the origin.
  const PeerIndex origin = f.peers[1];
  std::string key;
  for (const auto& k : keys) {
    const DataId id = hash_key(k);
    if (f.system.owner_tpeer(id) != f.system.tpeer_of(origin) &&
        f.system.store_of(origin).find(id) == nullptr) {
      key = k;
      break;
    }
  }
  ASSERT_FALSE(key.empty());

  sim::SimTime cached_at{};
  bool fetched = false;
  f.system.lookup(origin, key, [&](proto::LookupResult r) {
    fetched = r.success;
    cached_at = f.world.sim.now();  // cache_put runs in this same event
  });
  f.world.sim.run();
  ASSERT_TRUE(fetched);
  const std::uint64_t hits_after_fetch = f.system.cache_hits();

  const sim::SimTime deadline = cached_at + params.cache_ttl;
  bool hit_before = false;
  f.world.sim.schedule_at(deadline - sim::SimTime::micros(1), [&] {
    f.system.lookup(origin, key, [&](proto::LookupResult r) {
      hit_before = r.success && r.found_at == origin;
    });
  });
  bool miss_checked = false;
  f.world.sim.schedule_at(deadline, [&] {
    f.system.lookup(origin, key, [&](proto::LookupResult r) {
      miss_checked = true;
      // Entry exactly at expires == now is dead: served remotely again.
      EXPECT_TRUE(r.success);
      EXPECT_NE(r.found_at, origin);
      EXPECT_GT(r.latency, sim::SimTime{});
    });
  });
  f.world.sim.run();
  EXPECT_TRUE(hit_before) << "one microsecond early must still hit";
  EXPECT_TRUE(miss_checked);
  EXPECT_EQ(f.system.cache_hits(), hits_after_fetch + 1)
      << "only the pre-deadline lookup may count as a cache hit";
}

// --- Routed requests (pooled route records) ------------------------------------

/// Every peer a t-peer: a remote lookup is a pure ring walk of ~N_t/2 hops.
HybridParams ring_only() {
  auto p = defaults();
  p.ps = 0.0;
  return p;
}

/// A key whose owner is not `origin` and which `origin` does not hold, so
/// its lookup from `origin` must walk the ring.
std::string remote_key(const HybridFixture& f,
                       const std::vector<std::string>& keys,
                       PeerIndex origin) {
  for (const auto& k : keys) {
    const DataId id = hash_key(k);
    if (f.system.owner_tpeer(id) != origin &&
        f.system.store_of(origin).find(id) == nullptr) {
      return k;
    }
  }
  return {};
}

TEST(Hybrid, RingForwardingAllocatesNothingPerHop) {
  HybridFixture f{81, ring_only()};
  f.build(120);
  const auto keys = f.populate(60);
  std::uint64_t hops = 0;
  std::size_t successes = 0;
  auto lookup_all = [&] {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      f.system.lookup(f.peers[(i * 7 + 3) % f.peers.size()], keys[i],
                      [&](proto::LookupResult r) {
                        successes += r.success ? 1 : 0;
                        hops += r.request_hops;
                      });
    }
    f.world.sim.run();
  };
  lookup_all();  // warm-up: grows the route pool and the event arena
  hops = 0;
  successes = 0;
  const std::uint64_t before = alloc_stats::allocation_count();
  lookup_all();
  const std::uint64_t allocs = alloc_stats::allocation_count() - before;
  ASSERT_EQ(successes, keys.size());
  const double hops_per_lookup =
      static_cast<double>(hops) / static_cast<double>(keys.size());
  ASSERT_GT(hops_per_lookup, 20.0) << "the walks must be long to mean much";
  // What remains is per-lookup bookkeeping (the query record, its visited
  // set, the reply), independent of the walk length.  Per-hop
  // continuations cost several allocations on every one of those hops.
  const double allocs_per_lookup =
      static_cast<double>(allocs) / static_cast<double>(keys.size());
  EXPECT_LT(allocs_per_lookup, 16.0)
      << allocs << " allocations for " << keys.size() << " lookups of "
      << hops_per_lookup << " hops each";
  EXPECT_EQ(f.system.routes_in_flight(), 0u);
}

TEST(Hybrid, DelayedRingHopAndItsResendShareOneRoute) {
  HybridFixture f{82, ring_only()};
  f.build(40);
  const auto keys = f.populate(20);
  const PeerIndex origin = f.peers[5];
  const std::string key = remote_key(f, keys, origin);
  ASSERT_FALSE(key.empty());

  // Hold the lookup's first ring hop back far past its retry deadline: the
  // transport fires the retry, so two copies of the request walk the ring
  // on one route record, each hop a watched send with its own deadline.
  bool held = false;
  f.world.network.set_fault([&](PeerIndex, PeerIndex, proto::TrafficClass cls,
                                 std::uint32_t) {
    proto::FaultAction action;
    if (cls == proto::TrafficClass::kQuery && !held) {
      held = true;
      action.extra_delay = sim::SimTime::seconds(10);
    }
    return action;
  });
  int calls = 0;
  bool found = false;
  f.system.lookup(origin, key, [&](proto::LookupResult r) {
    ++calls;
    found = r.success;
  });
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(5));
  ASSERT_TRUE(held);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(found) << "the resend must finish the lookup on its own";
  EXPECT_EQ(f.system.routes_in_flight(), 1u)
      << "the held-back original still references the route";
  f.world.sim.run();
  EXPECT_EQ(calls, 1) << "the late original must not answer twice";
  EXPECT_EQ(f.system.routes_in_flight(), 0u);
}

TEST(Hybrid, RoutesDrainWhenRingHopsDieInFlight) {
  HybridFixture f{83, ring_only()};
  f.build(60);
  const auto keys = f.populate(40);
  std::size_t calls = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 11 + 2) % f.peers.size()], keys[i],
                    [&](proto::LookupResult) { ++calls; });
  }
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::millis(200));
  ASSERT_GT(f.system.routes_in_flight(), 0u);
  // Crash a quarter of the ring under the walks: hops to dead receivers are
  // dropped unrun, and the retry watchdogs give up once attempts run out.
  // Every record must still find its way back to the pool.
  for (std::size_t i = 1; i < f.peers.size(); i += 4) {
    f.system.crash(f.peers[i]);
  }
  f.world.sim.run();
  EXPECT_EQ(calls, keys.size());
  EXPECT_EQ(f.system.pending_lookups(), 0u);
  EXPECT_EQ(f.system.routes_in_flight(), 0u);
}

TEST(Hybrid, SystemMayBeDestroyedWithRoutesInFlight) {
  // The world's simulator outlives the system, so queued hops release their
  // route handles after the pool is gone (run under ASan to see it).
  auto f = std::make_unique<HybridFixture>(84, ring_only());
  f->build(30);
  const auto keys = f->populate(10);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f->system.lookup(f->peers[(i * 3 + 1) % f->peers.size()], keys[i],
                     [](proto::LookupResult) {});
  }
  f->world.sim.run_until(f->world.sim.now() + sim::SimTime::millis(100));
  ASSERT_GT(f->system.routes_in_flight(), 0u);
  f.reset();
}

TEST(Hybrid, QuiescentRingLookupSchedulesOneEventPerMessage) {
  // Retries are armed on every hop, but a hop that is delivered must cost
  // its delivery and nothing else: no per-hop timer.
  HybridFixture f{85, ring_only()};
  f.build(60);
  const auto keys = f.populate(30);
  f.world.sim.run();
  ASSERT_TRUE(f.world.sim.idle()) << "the world must be quiescent";
  std::uint32_t longest = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const PeerIndex origin = f.peers[(i * 7 + 3) % f.peers.size()];
    const std::string key = remote_key(f, keys, origin);
    ASSERT_FALSE(key.empty());
    const std::uint64_t events_before = f.world.sim.stats().events_scheduled;
    const std::uint64_t sent_before = f.world.network.stats().messages_sent;
    proto::LookupResult result;
    f.system.lookup(origin, key, [&](proto::LookupResult r) { result = r; });
    f.world.sim.run();
    ASSERT_TRUE(result.success);
    longest = std::max(longest, result.request_hops);
    const std::uint64_t events =
        f.world.sim.stats().events_scheduled - events_before;
    const std::uint64_t sent =
        f.world.network.stats().messages_sent - sent_before;
    // Plus the lookup's own two timers: its timeout and the end-to-end
    // reroute at half of it.
    EXPECT_EQ(events, sent + 2)
        << "lookup " << i << ": " << sent << " messages, "
        << result.request_hops << " hops";
  }
  EXPECT_EQ(f.world.network.stats().messages_lost, 0u);
  EXPECT_GT(longest, 10u) << "the walks must be long to mean much";
}

// --- Per-role peer state ----------------------------------------------------------

/// Counts live s-peers that show any ring state: a link, a finger, or a
/// RingState at all.  `first` names the first offender.
std::size_t speers_with_ring_state(const HybridFixture& f, std::string& first) {
  std::size_t bad = 0;
  for (const PeerIndex p : f.peers) {
    if (!f.system.is_alive(p) || f.system.role_of(p) != Role::kSPeer) continue;
    bool clean = f.system.successor_of(p) == kNoPeer &&
                 f.system.predecessor_of(p) == kNoPeer &&
                 !FaultInjector::holds_ring(f.system, p);
    const chord::FingerTable& fingers = f.system.fingers_of(p);
    for (unsigned k = 0; k < chord::FingerTable::size(); ++k) {
      clean = clean && fingers.entry(k).node == kNoPeer;
    }
    if (clean) continue;
    if (bad++ == 0) first = "s-peer " + std::to_string(p.value());
  }
  return bad;
}

TEST(Hybrid, SPeersHoldNoRingStateThroughChurn) {
  auto params = defaults();
  params.ps = 0.7;
  params.t_routing = TRouting::kFinger;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  HybridFixture f{310, params};
  f.build(60);
  f.system.refresh_all_fingers();
  f.system.start_failure_detection();
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(2));

  std::string first;
  ASSERT_EQ(speers_with_ring_state(f, first), 0u) << "after build: " << first;

  // Crash storm plus graceful leaves, t-peers with s-networks and s-peers
  // alike, so both promotion paths run while the checker samples.
  std::vector<PeerIndex> rooted;
  std::vector<PeerIndex> speers;
  for (const PeerIndex p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      speers.push_back(p);
    } else if (!f.system.children_of(p).empty()) {
      rooted.push_back(p);
    }
  }
  ASSERT_GE(rooted.size(), 8u);
  ASSERT_GE(speers.size(), 6u);
  std::vector<PeerIndex> crashed;
  std::vector<PeerIndex> left;
  for (std::size_t i = 0; i < 8; ++i) {
    const PeerIndex t = rooted[i];
    const PeerIndex s = speers[i % speers.size()];
    const bool graceful = i % 2 == 1;
    (graceful ? left : crashed).push_back(t);
    f.world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 120),
        [&f, t, s, graceful] {
          if (graceful) {
            f.system.leave(t);
            f.system.leave(s);
          } else {
            f.system.crash(t);
            f.system.crash(s);
          }
        });
  }
  std::size_t mid_churn_bad = 0;
  for (int i = 1; i <= 400; ++i) {
    f.world.sim.schedule_after(sim::SimTime::millis(i * 50), [&] {
      mid_churn_bad += speers_with_ring_state(f, first);
    });
  }
  f.world.sim.run_until(f.world.sim.now() + sim::SimTime::seconds(25));
  EXPECT_EQ(mid_churn_bad, 0u) << "mid-churn: " << first;
  EXPECT_EQ(speers_with_ring_state(f, first), 0u) << "after churn: " << first;

  // Both promotion paths ran: a departed root's pid lives on in an heir,
  // and every live t-peer holds its ring position.
  const auto heirs_of = [&f](const std::vector<PeerIndex>& victims) {
    return std::ranges::count_if(victims, [&f](PeerIndex v) {
      return std::ranges::any_of(f.peers, [&f, v](PeerIndex p) {
        return p != v && f.system.is_alive(p) && f.system.is_joined(p) &&
               f.system.role_of(p) == Role::kTPeer &&
               f.system.pid_of(p) == f.system.pid_of(v);
      });
    });
  };
  EXPECT_GT(heirs_of(crashed), 0u);
  EXPECT_EQ(heirs_of(left), static_cast<std::ptrdiff_t>(left.size()));
  for (const PeerIndex p : f.peers) {
    if (!f.system.is_alive(p) || !f.system.is_joined(p) ||
        f.system.role_of(p) != Role::kTPeer) {
      continue;
    }
    EXPECT_TRUE(FaultInjector::holds_ring(f.system, p)) << p.value();
    EXPECT_NE(f.system.successor_of(p), kNoPeer) << p.value();
  }
  for (const PeerIndex v : left) {
    EXPECT_FALSE(FaultInjector::holds_ring(f.system, v))
        << "graceful leaver " << v.value() << " kept its ring position";
  }
}

TEST(Replication, CandidateMemoMatchesFreshWalk) {
  // The replication paths read each owner's replica candidates from a memo
  // kept per tree epoch and transport liveness epoch.  Through crashes,
  // graceful leaves and joins the memo must equal a fresh s-network walk
  // after every event, for every live t-peer.
  auto params = defaults();
  params.ps = 0.7;
  params.t_routing = TRouting::kFinger;
  params.hello_interval = sim::SimTime::millis(500);
  params.hello_timeout = sim::SimTime::millis(1500);
  params.replication_factor = 2;
  HybridFixture f{310, params};
  f.build(60);
  f.system.refresh_all_fingers();
  f.populate(60);
  f.system.start_failure_detection();

  std::size_t checks = 0;
  std::size_t stale = 0;
  std::string first;
  const auto compare = [&] {
    for (const PeerIndex p : f.peers) {
      if (!f.system.is_alive(p) || !f.system.is_joined(p) ||
          f.system.role_of(p) != Role::kTPeer) {
        continue;
      }
      ++checks;
      const auto memo = FaultInjector::memo_candidates(f.system, p);
      if (memo != FaultInjector::fresh_candidates(f.system, p) &&
          ++stale == 1) {
        first = "owner " + std::to_string(p.value()) + " at " +
                std::to_string(f.world.sim.now().as_millis()) + " ms";
      }
    }
  };

  std::vector<PeerIndex> rooted;
  std::vector<PeerIndex> speers;
  for (const PeerIndex p : f.peers) {
    if (f.system.role_of(p) == Role::kSPeer) {
      speers.push_back(p);
    } else if (!f.system.children_of(p).empty()) {
      rooted.push_back(p);
    }
  }
  ASSERT_GE(rooted.size(), 8u);
  ASSERT_GE(speers.size(), 6u);
  for (std::size_t i = 0; i < 8; ++i) {
    const PeerIndex t = rooted[i];
    const PeerIndex s = speers[i % speers.size()];
    const bool graceful = i % 2 == 1;
    f.world.sim.schedule_after(
        sim::SimTime::millis(static_cast<std::int64_t>(i) * 120),
        [&f, t, s, graceful] {
          if (graceful) {
            f.system.leave(t);
            f.system.leave(s);
          } else {
            f.system.crash(t);
            f.system.crash(s);
          }
          f.peers.push_back(f.system.add_peer(f.world.next_host()));
        });
  }
  const auto run_for = [&](sim::Duration span) {
    const sim::SimTime end = f.world.sim.now() + span;
    while (f.world.sim.next_event_time() <= end) {
      f.world.sim.step();
      compare();
    }
  };
  run_for(sim::SimTime::seconds(25));
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(stale, 0u) << "first stale memo after churn: " << first;

  // Churn flips `joined` or liveness in the same event as most child-list
  // edits, so each edit helper is also exercised on its own: a lost child
  // record (drop_child), its re-adoption on the next HELLO (add_child), and
  // a subtree cut loose from its parent (clear_children).
  const auto joined_child_of = [&f](PeerIndex p) {
    for (const PeerIndex c : f.system.children_of(p)) {
      if (f.system.is_alive(c) && f.system.is_joined(c)) return c;
    }
    return kNoPeer;
  };
  PeerIndex parent = kNoPeer;
  PeerIndex inner = kNoPeer;  // an s-peer with a joined child
  for (const PeerIndex p : f.peers) {
    if (!f.system.is_alive(p) || !f.system.is_joined(p) ||
        joined_child_of(p) == kNoPeer) {
      continue;
    }
    if (f.system.role_of(p) == Role::kTPeer && parent == kNoPeer) parent = p;
    if (f.system.role_of(p) == Role::kSPeer && inner == kNoPeer) inner = p;
  }
  ASSERT_NE(parent, kNoPeer);
  ASSERT_NE(inner, kNoPeer);
  const PeerIndex child = joined_child_of(parent);
  ASSERT_TRUE(FaultInjector::drop_tree_edge(f.system, child));
  compare();
  EXPECT_EQ(stale, 0u) << "after drop_child: " << first;
  run_for(sim::SimTime::seconds(2));
  EXPECT_TRUE(std::ranges::count(f.system.children_of(parent), child) == 1)
      << "the HELLO re-adoption never ran";
  EXPECT_EQ(stale, 0u) << "after add_child: " << first;
  FaultInjector::detach_from_tree(f.system, inner);
  compare();
  EXPECT_EQ(stale, 0u) << "after clear_children: " << first;
  run_for(sim::SimTime::seconds(5));
  EXPECT_EQ(stale, 0u) << "after the subtree rejoined: " << first;
  // A death only the transport has seen yet: the liveness epoch alone
  // dates it.
  const PeerIndex victim = joined_child_of(parent);
  ASSERT_NE(victim, kNoPeer);
  f.world.network.set_alive(victim, false);
  compare();
  EXPECT_EQ(stale, 0u) << "after a transport-level death: " << first;
}

TEST(Replication, SeatMemoMatchesFreshRankingThroughChurn) {
  // replica_set() and the anti-entropy sweep's seat test read each item's
  // r - 1 seats from a ranking memoized under the candidate memo's epochs.
  // Through crashes, graceful leaves and joins, after every event, both
  // must agree with a replica set rebuilt from a fresh walk fully sorted by
  // replica_key, for r = 2 and r = 3; so must they after two s-networks
  // trade a member at equal sizes.  The successor fallback is read live,
  // so a successor change that moves neither epoch must still move the
  // fallback seat.
  for (const unsigned r : {2u, 3u}) {
    SCOPED_TRACE("replication_factor " + std::to_string(r));
    auto params = defaults();
    params.ps = 0.7;
    params.t_routing = TRouting::kFinger;
    params.hello_interval = sim::SimTime::millis(500);
    params.hello_timeout = sim::SimTime::millis(1500);
    params.replication_factor = r;
    HybridFixture f{312, params};
    f.build(60);
    f.system.refresh_all_fingers();
    f.populate(60);
    f.system.start_failure_detection();

    std::vector<DataId> ids;
    for (std::uint64_t v = 1; v <= 48; ++v) ids.push_back(DataId{mix64(v)});
    std::size_t checks = 0;
    std::size_t fallback_seats = 0;
    std::size_t stale = 0;
    std::string first;
    const auto note = [&](const char* what, DataId id) {
      if (++stale == 1) {
        first = std::string{what} + ", id " + std::to_string(id.value()) +
                " at " + std::to_string(f.world.sim.now().as_millis()) +
                " ms";
      }
    };
    const auto compare_id = [&](DataId id) {
      const PeerIndex owner = f.system.owner_tpeer(id);
      if (owner == kNoPeer) return;
      ++checks;
      const auto fresh = FaultInjector::fresh_replica_set(f.system, id);
      if (f.system.replica_set(id) != fresh) note("replica_set", id);
      auto asked = FaultInjector::fresh_candidates(f.system, owner);
      const PeerIndex suc = f.system.successor_of(owner);
      if (fresh.size() > 1 && fresh.back() == suc &&
          std::ranges::count(asked, suc) == 0) {
        ++fallback_seats;
      }
      asked.push_back(owner);
      asked.push_back(suc);
      for (const PeerIndex m : asked) {
        if (m == kNoPeer) continue;
        const bool seated = std::ranges::count(fresh, m) != 0;
        if (FaultInjector::sweep_in_replica_set(f.system, m, id) != seated) {
          note("seat test", id);
        }
      }
    };
    const auto compare = [&] {
      for (const DataId id : ids) compare_id(id);
    };

    std::vector<PeerIndex> rooted;
    std::vector<PeerIndex> speers;
    for (const PeerIndex p : f.peers) {
      if (f.system.role_of(p) == Role::kSPeer) {
        speers.push_back(p);
      } else if (!f.system.children_of(p).empty()) {
        rooted.push_back(p);
      }
    }
    ASSERT_GE(rooted.size(), 6u);
    ASSERT_GE(speers.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      const PeerIndex t = rooted[i];
      const PeerIndex s = speers[i];
      const bool graceful = i % 2 == 1;
      f.world.sim.schedule_after(
          sim::SimTime::millis(static_cast<std::int64_t>(i) * 150),
          [&f, t, s, graceful] {
            if (graceful) {
              f.system.leave(t);
              f.system.leave(s);
            } else {
              f.system.crash(t);
              f.system.crash(s);
            }
            f.peers.push_back(f.system.add_peer(f.world.next_host()));
          });
    }
    // A t-peer that joins last roots no s-network, so its items' seats
    // beyond the owner fall to its successor.
    PeerIndex lone = kNoPeer;
    f.world.sim.schedule_after(sim::SimTime::seconds(3), [&] {
      lone = f.system.add_peer_with_role(f.world.next_host(), Role::kTPeer);
      f.peers.push_back(lone);
    });
    const auto run_for = [&](sim::Duration span) {
      const sim::SimTime end = f.world.sim.now() + span;
      while (f.world.sim.next_event_time() <= end) {
        f.world.sim.step();
        compare();
      }
    };
    run_for(sim::SimTime::seconds(15));
    EXPECT_GT(checks, 0u);
    EXPECT_GT(fallback_seats, 0u) << "the successor fallback never seated";
    EXPECT_EQ(stale, 0u) << "first stale seat after churn: " << first;

    // Two s-networks trade a leaf each between two reads, so each owner's
    // candidate list changes at the same size: the seats must follow the
    // members, not the list's shape.
    const auto leaf_of = [&f](PeerIndex owner) {
      for (const PeerIndex m : FaultInjector::fresh_candidates(f.system,
                                                               owner)) {
        if (f.system.children_of(m).empty()) return m;
      }
      return kNoPeer;
    };
    std::vector<PeerIndex> traders;
    for (const PeerIndex p : f.peers) {
      if (traders.size() < 2 && p != lone && f.system.is_alive(p) &&
          f.system.is_joined(p) && f.system.role_of(p) == Role::kTPeer &&
          FaultInjector::fresh_candidates(f.system, p).size() >= 2 &&
          leaf_of(p) != kNoPeer) {
        traders.push_back(p);
      }
    }
    ASSERT_EQ(traders.size(), 2u);
    const PeerIndex leaf_a = leaf_of(traders[0]);
    const PeerIndex leaf_b = leaf_of(traders[1]);
    std::vector<DataId> traded_ids;
    std::size_t traded_seats = 0;
    for (const PeerIndex owner : traders) {
      const std::uint64_t hi = f.system.pid_of(owner).value();
      for (std::uint64_t k = 0; k < 16; ++k) {
        const DataId id{ring::reduce(hi - k)};
        ASSERT_EQ(f.system.owner_tpeer(id), owner);
        traded_ids.push_back(id);
        compare_id(id);  // warms the memo
        const auto holders = f.system.replica_set(id);
        traded_seats += static_cast<std::size_t>(
            std::ranges::count(holders, leaf_a) +
            std::ranges::count(holders, leaf_b));
      }
    }
    ASSERT_GT(traded_seats, 0u) << "neither traded leaf held a seat";
    FaultInjector::swap_leaves(f.system, leaf_a, leaf_b);
    for (const DataId id : traded_ids) compare_id(id);
    EXPECT_EQ(stale, 0u) << "after two s-networks traded a leaf: " << first;

    // Point the lone t-peer's successor elsewhere: no epoch moves, so the
    // memoized seats stay, but the fallback seat must follow the pointer.
    ASSERT_NE(lone, kNoPeer);
    ASSERT_TRUE(f.system.is_joined(lone));
    ASSERT_TRUE(FaultInjector::fresh_candidates(f.system, lone).empty());
    const DataId id{f.system.pid_of(lone).value()};
    ASSERT_EQ(f.system.owner_tpeer(id), lone);
    const PeerIndex old_suc = f.system.successor_of(lone);
    PeerIndex new_suc = kNoPeer;
    for (const PeerIndex p : f.peers) {
      if (p != lone && p != old_suc && f.system.is_alive(p) &&
          f.system.is_joined(p) && f.system.role_of(p) == Role::kTPeer) {
        new_suc = p;
        break;
      }
    }
    ASSERT_NE(new_suc, kNoPeer);
    compare_id(id);  // warms the memo for `lone`
    const std::uint64_t tree = FaultInjector::tree_epoch(f.system);
    const std::uint64_t net = f.world.network.liveness_epoch();
    FaultInjector::corrupt_successor(f.system, lone, new_suc);
    ASSERT_EQ(FaultInjector::tree_epoch(f.system), tree);
    ASSERT_EQ(f.world.network.liveness_epoch(), net);
    EXPECT_EQ(f.system.replica_set(id),
              (std::vector<PeerIndex>{lone, new_suc}));
    EXPECT_TRUE(FaultInjector::sweep_in_replica_set(f.system, new_suc, id));
    EXPECT_FALSE(FaultInjector::sweep_in_replica_set(f.system, old_suc, id));
    compare_id(id);
    EXPECT_EQ(stale, 0u) << "after the successor moved: " << first;
  }
}

TEST(Hybrid, GracefulPromotionMovesTheWholeRingPosition) {
  // One t-peer rooting an 11-member s-network, so both joiners' requests
  // reach it: the first runs its triangle while the second queues.  The
  // t-peer is told to leave mid-join; Section 3.3 makes it finish its join
  // queue first, then hand its whole position to an s-peer heir.
  auto params = defaults();
  params.ps = 0.95;
  params.t_routing = TRouting::kFinger;
  HybridFixture f{311, params};
  f.build(12);
  const PeerIndex leaver = f.peers[0];
  ASSERT_EQ(f.system.role_of(leaver), Role::kTPeer);
  ASSERT_EQ(f.system.num_tpeers(), 1u);
  f.system.refresh_all_fingers();
  const PeerId pid = f.system.pid_of(leaver);

  std::size_t joined = 0;
  for (int i = 0; i < 2; ++i) {
    f.peers.push_back(f.system.add_peer_with_role(
        f.world.next_host(), Role::kTPeer,
        [&](proto::JoinResult) { ++joined; }));
  }
  while (!f.system.is_joining(leaver)) {
    ASSERT_TRUE(f.world.sim.step()) << "no join reached the t-peer";
  }
  f.system.leave(leaver);

  // Snapshot the leaver's position at every step until it hands over.
  struct Position {
    PeerIndex successor, predecessor;
    PeerId successor_id, predecessor_id;
    std::vector<std::pair<PeerIndex, PeerId>> fingers;
  };
  const auto position_of = [&f](PeerIndex p) {
    Position pos{f.system.successor_of(p), f.system.predecessor_of(p),
                 f.system.successor_id_of(p), f.system.predecessor_id_of(p),
                 {}};
    const chord::FingerTable& table = f.system.fingers_of(p);
    for (unsigned k = 0; k < chord::FingerTable::size(); ++k) {
      pos.fingers.emplace_back(table.entry(k).node, table.entry(k).node_id);
    }
    return pos;
  };
  Position before = position_of(leaver);
  while (f.system.is_joined(leaver)) {
    before = position_of(leaver);
    ASSERT_TRUE(f.world.sim.step()) << "the leave never completed";
  }
  f.world.sim.run();
  EXPECT_EQ(joined, 2u) << "a queued join was lost in the hand-over";
  EXPECT_FALSE(f.system.is_alive(leaver));
  EXPECT_FALSE(FaultInjector::holds_ring(f.system, leaver));

  PeerIndex heir = kNoPeer;
  for (const PeerIndex p : f.peers) {
    if (p != leaver && f.system.is_joined(p) &&
        f.system.role_of(p) == Role::kTPeer && f.system.pid_of(p) == pid) {
      heir = p;
    }
  }
  ASSERT_NE(heir, kNoPeer) << "no heir took the leaver's pid";
  EXPECT_TRUE(FaultInjector::holds_ring(f.system, heir));
  EXPECT_FALSE(f.system.is_joining(heir));
  const auto self_to_heir = [&](PeerIndex p) { return p == leaver ? heir : p; };
  const Position after = position_of(heir);
  EXPECT_EQ(after.successor, self_to_heir(before.successor));
  EXPECT_EQ(after.predecessor, self_to_heir(before.predecessor));
  EXPECT_EQ(after.successor_id, before.successor_id);
  EXPECT_EQ(after.predecessor_id, before.predecessor_id);
  EXPECT_EQ(after.fingers, before.fingers);
  EXPECT_TRUE(f.system.verify_ring());
  EXPECT_EQ(f.system.num_tpeers(), 3u);
}

}  // namespace
}  // namespace hp2p::hybrid
