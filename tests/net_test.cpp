// Unit tests for the underlay: graph, transit-stub generation, routing.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/graph.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"

namespace hp2p::net {
namespace {

/// Latency of every edge, by edge id, read back from the adjacency rows.
std::vector<std::uint32_t> edge_latencies(const Graph& g) {
  std::vector<std::uint32_t> latency(g.num_edges(), 0);
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const HalfEdge& h : g.neighbors(u)) latency[h.edge] = h.latency_us;
  }
  return latency;
}

TEST(Graph, AddNodesAndEdges) {
  const Edge edges[] = {{0, 1, 100}, {2, 1, 50}};
  const Graph g{3, edges};
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(edge_latencies(g), (std::vector<std::uint32_t>{100, 50}));
  ASSERT_EQ(g.neighbors(1).size(), 2u);
  // A row lists its edges in id order, whichever end the node is.
  EXPECT_EQ(g.neighbors(1)[0].to, 0u);
  EXPECT_EQ(g.neighbors(1)[0].edge, 0u);
  EXPECT_EQ(g.neighbors(1)[1].to, 2u);
  EXPECT_EQ(g.neighbors(1)[1].edge, 1u);
  EXPECT_EQ(g.neighbors(2)[0].latency_us, 50u);
}

TEST(Graph, NeighborsSymmetric) {
  const Edge edges[] = {{0, 1, 7}};
  const Graph g{2, edges};
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(1)[0].to, 0u);
  EXPECT_EQ(g.neighbors(0)[0].edge, g.neighbors(1)[0].edge);
}

TEST(Graph, Connectivity) {
  std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}};
  EXPECT_FALSE((Graph{4, edges}.connected()));
  edges.push_back({2, 3, 1});
  EXPECT_TRUE((Graph{4, edges}.connected()));
}

TEST(Graph, EmptyGraphConnected) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_TRUE(g.connected());
  const Graph one{1};
  EXPECT_TRUE(one.connected());
  EXPECT_TRUE(one.neighbors(0).empty());
}

TEST(Graph, HoldsExactlyOffsetsAndHalfEdges) {
  // Compressed rows: (V+1) offsets of 4 B and two 12 B halves per edge,
  // nothing else, at the size of the quiet_100k underlay too.
  static_assert(sizeof(HalfEdge) == 12);
  for (const std::uint32_t nodes : {1001u, 100001u}) {
    Rng rng = Rng{42}.fork(1);
    const Topology topo =
        generate_transit_stub(TransitStubParams::for_total_nodes(nodes), rng);
    const Graph& g = topo.graph;
    EXPECT_EQ(g.memory_bytes(),
              (g.num_nodes() + 1) * 4 + 2 * g.num_edges() * sizeof(HalfEdge))
        << nodes;
  }
}

TEST(TransitStub, TotalNodesFormula) {
  TransitStubParams p;
  EXPECT_EQ(p.total_nodes(),
            p.transit_domains * p.transit_nodes_per_domain *
                (1 + p.stub_domains_per_transit_node * p.stub_nodes_per_domain));
}

TEST(TransitStub, ForTotalNodesReachesTarget) {
  for (std::uint32_t n : {100u, 500u, 1000u, 2000u}) {
    const auto p = TransitStubParams::for_total_nodes(n);
    EXPECT_GE(p.total_nodes(), n);
    EXPECT_LE(p.total_nodes(), n + 48u);  // at most one extra per stub domain
  }
}

TEST(TransitStub, GeneratesConnectedTopology) {
  Rng rng{11};
  const auto p = TransitStubParams::for_total_nodes(300);
  const Topology topo = generate_transit_stub(p, rng);
  EXPECT_TRUE(topo.graph.connected());
  EXPECT_EQ(topo.graph.num_nodes(), p.total_nodes());
  EXPECT_EQ(topo.num_transit_nodes,
            p.transit_domains * p.transit_nodes_per_domain);
}

TEST(TransitStub, RolesAssigned) {
  Rng rng{12};
  const auto p = TransitStubParams::for_total_nodes(200);
  const Topology topo = generate_transit_stub(p, rng);
  std::uint32_t transit = 0;
  for (auto r : topo.role) transit += (r == NodeRole::kTransit);
  EXPECT_EQ(transit, topo.num_transit_nodes);
  // Transit nodes come first.
  for (std::uint32_t i = 0; i < topo.num_transit_nodes; ++i) {
    EXPECT_EQ(topo.role[i], NodeRole::kTransit);
  }
}

TEST(TransitStub, DeterministicForSeed) {
  const auto p = TransitStubParams::for_total_nodes(150);
  Rng r1{77};
  Rng r2{77};
  const Topology a = generate_transit_stub(p, r1);
  const Topology b = generate_transit_stub(p, r2);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(edge_latencies(a.graph), edge_latencies(b.graph));
}

class UnderlayTest : public ::testing::Test {
 protected:
  UnderlayTest() : rng_(21) {
    auto p = TransitStubParams::for_total_nodes(200);
    underlay_.emplace(generate_transit_stub(p, rng_), rng_);
  }
  Rng rng_;
  std::optional<Underlay> underlay_;
};

TEST_F(UnderlayTest, SelfLatencyZero) {
  for (std::uint32_t i = 0; i < underlay_->num_hosts(); i += 17) {
    EXPECT_EQ(underlay_->latency(HostIndex{i}, HostIndex{i}),
              sim::SimTime{});
  }
}

TEST_F(UnderlayTest, LatencySymmetricForUndirectedGraph) {
  for (std::uint32_t i = 0; i < 20; ++i) {
    const HostIndex a{i};
    const HostIndex b{underlay_->num_hosts() - 1 - i};
    EXPECT_EQ(underlay_->latency(a, b), underlay_->latency(b, a));
  }
}

TEST_F(UnderlayTest, TriangleInequality) {
  // Shortest paths must satisfy d(a,c) <= d(a,b) + d(b,c).
  Rng rng{5};
  for (int trial = 0; trial < 200; ++trial) {
    const HostIndex a{static_cast<std::uint32_t>(rng.index(underlay_->num_hosts()))};
    const HostIndex b{static_cast<std::uint32_t>(rng.index(underlay_->num_hosts()))};
    const HostIndex c{static_cast<std::uint32_t>(rng.index(underlay_->num_hosts()))};
    EXPECT_LE(underlay_->latency(a, c).as_micros(),
              underlay_->latency(a, b).as_micros() +
                  underlay_->latency(b, c).as_micros());
  }
}

TEST_F(UnderlayTest, PathEdgeLatenciesSumToShortestPath) {
  Rng rng{6};
  const auto latency = edge_latencies(underlay_->topology().graph);
  for (int trial = 0; trial < 100; ++trial) {
    const HostIndex a{static_cast<std::uint32_t>(rng.index(underlay_->num_hosts()))};
    const HostIndex b{static_cast<std::uint32_t>(rng.index(underlay_->num_hosts()))};
    std::int64_t sum = 0;
    std::uint32_t edges = 0;
    underlay_->for_each_path_edge(a, b, [&](EdgeIndex e) {
      sum += latency[e];
      ++edges;
    });
    EXPECT_EQ(sum, underlay_->latency(a, b).as_micros());
    EXPECT_EQ(edges, underlay_->path_hops(a, b));
  }
}

TEST_F(UnderlayTest, CapacityClassesDealtInThirds) {
  std::size_t counts[3] = {};
  for (std::uint32_t i = 0; i < underlay_->num_hosts(); ++i) {
    ++counts[static_cast<std::size_t>(underlay_->capacity(HostIndex{i}))];
  }
  const auto n = underlay_->num_hosts();
  for (auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 3.0, 2.0);
  }
}

TEST_F(UnderlayTest, TransmissionDelayUsesBottleneck) {
  // Find one low-capacity and one high-capacity host.
  HostIndex low = kNoHost;
  HostIndex high = kNoHost;
  for (std::uint32_t i = 0; i < underlay_->num_hosts(); ++i) {
    if (underlay_->capacity(HostIndex{i}) == CapacityClass::kLow)
      low = HostIndex{i};
    if (underlay_->capacity(HostIndex{i}) == CapacityClass::kHigh)
      high = HostIndex{i};
  }
  ASSERT_NE(low, kNoHost);
  ASSERT_NE(high, kNoHost);
  const auto slow = underlay_->transmission_delay(low, high, 1000);
  const auto fast = underlay_->transmission_delay(high, high, 1000);
  // Bottleneck is the low side: 10x slower.
  EXPECT_NEAR(static_cast<double>(slow.as_micros()),
              10.0 * static_cast<double>(fast.as_micros()),
              static_cast<double>(fast.as_micros()) * 0.01 + 2);
}

TEST_F(UnderlayTest, CapacityRatioIsTen) {
  EXPECT_DOUBLE_EQ(capacity_bps(CapacityClass::kHigh) /
                       capacity_bps(CapacityClass::kLow),
                   10.0);
}

TEST_F(UnderlayTest, DistancesToLandmarks) {
  const std::vector<HostIndex> landmarks{HostIndex{0}, HostIndex{5}};
  const auto d = underlay_->distances_to(HostIndex{10}, landmarks);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], underlay_->latency(HostIndex{10}, HostIndex{0}));
  EXPECT_EQ(d[1], underlay_->latency(HostIndex{10}, HostIndex{5}));
}

TEST(LinkStress, Counters) {
  LinkStress ls{4};
  ls.bump(0);
  ls.bump(0);
  ls.bump(3);
  EXPECT_EQ(ls.count(0), 2u);
  EXPECT_EQ(ls.count(1), 0u);
  EXPECT_EQ(ls.max_stress(), 2u);
  EXPECT_EQ(ls.total_copies(), 3u);
  EXPECT_DOUBLE_EQ(ls.mean_stress(), 0.75);
}

TEST(LinkStress, SparseAgreesWithDense) {
  // The sparse (hash-map) counters must report exactly what the dense
  // per-edge vector reports, including the mean's full-edge-count
  // denominator.
  constexpr std::size_t kEdges = 64;
  LinkStress dense{kEdges, LinkStress::Mode::kDense};
  LinkStress sparse{kEdges, LinkStress::Mode::kSparse};
  ASSERT_FALSE(dense.sparse());
  ASSERT_TRUE(sparse.sparse());
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    const auto e = static_cast<EdgeIndex>(rng.index(kEdges));
    dense.bump(e);
    sparse.bump(e);
  }
  for (std::uint32_t e = 0; e < kEdges; ++e) {
    EXPECT_EQ(sparse.count(e), dense.count(e)) << "edge " << e;
  }
  EXPECT_EQ(sparse.max_stress(), dense.max_stress());
  EXPECT_EQ(sparse.total_copies(), dense.total_copies());
  EXPECT_DOUBLE_EQ(sparse.mean_stress(), dense.mean_stress());
}

TEST(TransitStub, ForTotalNodesKeepsHistoricalShapeAtPaperScale) {
  // Up to 48*64+16 nodes the parameters must be exactly what the original
  // formula produced -- the paper-figure topologies (and their RNG streams)
  // depend on it.
  for (std::uint32_t n : {100u, 1001u, 2000u, 3088u}) {
    const auto p = TransitStubParams::for_total_nodes(n);
    EXPECT_EQ(p.transit_domains, 4u);
    EXPECT_EQ(p.transit_nodes_per_domain, 4u);
    EXPECT_EQ(p.stub_domains_per_transit_node, 3u);
    EXPECT_EQ(p.stub_nodes_per_domain,
              std::max(1u, (n - 16u + 47u) / 48u));
    EXPECT_GE(p.total_nodes(), n);
  }
}

TEST(TransitStub, ForTotalNodesGrowsTransitSkeletonAtScale) {
  // Past the paper-scale knee the stub size pins and the transit skeleton
  // widens, so stub domains (and intra-domain query cost) stay bounded.
  for (std::uint32_t n : {10'000u, 50'000u, 100'000u}) {
    const auto p = TransitStubParams::for_total_nodes(n);
    EXPECT_EQ(p.stub_nodes_per_domain,
              TransitStubParams::kMaxStubNodesPerDomain);
    EXPECT_GE(p.total_nodes(), n);
    EXPECT_LE(p.total_nodes(), n + 772u);  // at most one extra transit domain
    const std::uint32_t transit =
        p.transit_domains * p.transit_nodes_per_domain;
    EXPECT_LT(transit, p.total_nodes() / 100);  // core stays a sliver
  }
}

/// Textbook Dijkstra over the whole graph from `source`: distances only,
/// written independently of Underlay::shortest_paths.
std::vector<std::uint64_t> whole_graph_distances(const Graph& g,
                                                 std::uint32_t source) {
  std::vector<std::uint64_t> dist(g.num_nodes(), UINT64_MAX);
  std::set<std::pair<std::uint64_t, std::uint32_t>> open{{0, source}};
  dist[source] = 0;
  while (!open.empty()) {
    const auto [d, u] = *open.begin();
    open.erase(open.begin());
    for (const HalfEdge& h : g.neighbors(u)) {
      if (d + h.latency_us < dist[h.to]) {
        open.erase({dist[h.to], h.to});
        dist[h.to] = d + h.latency_us;
        open.insert({dist[h.to], h.to});
      }
    }
  }
  return dist;
}

TEST(HierarchicalRouting, LatenciesMatchWholeGraphDijkstra) {
  // The transit-stub decomposition is exact (single gateway edge per stub
  // domain), so its answers must equal a plain whole-graph Dijkstra
  // bit-for-bit -- every pair, not a sample.
  Rng topo_rng{41};
  const auto p = TransitStubParams::for_total_nodes(300);
  Rng cap{7};
  const Underlay u{generate_transit_stub(p, topo_rng), cap};
  const std::uint32_t n = u.num_hosts();
  for (std::uint32_t a = 0; a < n; ++a) {
    const auto dist = whole_graph_distances(u.topology().graph, a);
    for (std::uint32_t b = 0; b < n; ++b) {
      ASSERT_EQ(static_cast<std::uint64_t>(
                    u.latency(HostIndex{a}, HostIndex{b}).as_micros()),
                dist[b])
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(HierarchicalRouting, PathWalksAreSelfConsistent) {
  // Edge walks must sum to the reported latency and count the reported
  // hops, for intra-domain, cross-domain, and transit-anchored pairs alike.
  Rng topo_rng{43};
  const auto p = TransitStubParams::for_total_nodes(400);
  Rng cap{3};
  const Underlay u{generate_transit_stub(p, topo_rng), cap};
  const auto latency = edge_latencies(u.topology().graph);
  Rng pair_rng{6};
  auto check_pair = [&](HostIndex a, HostIndex b) {
    std::int64_t sum = 0;
    std::uint32_t edges = 0;
    u.for_each_path_edge(a, b, [&](EdgeIndex e) {
      sum += latency[e];
      ++edges;
    });
    EXPECT_EQ(sum, u.latency(a, b).as_micros())
        << "pair (" << a.value() << ", " << b.value() << ")";
    EXPECT_EQ(edges, u.path_hops(a, b));
    EXPECT_EQ(u.latency(a, b), u.latency(b, a));
  };
  for (int trial = 0; trial < 300; ++trial) {
    check_pair(HostIndex{static_cast<std::uint32_t>(pair_rng.index(u.num_hosts()))},
               HostIndex{static_cast<std::uint32_t>(pair_rng.index(u.num_hosts()))});
  }
  // Same-stub-domain pairs specifically (consecutive ids past the transit
  // block usually share a domain).
  const std::uint32_t base = u.topology().num_transit_nodes;
  for (std::uint32_t i = base; i + 1 < u.num_hosts(); i += 7) {
    check_pair(HostIndex{i}, HostIndex{i + 1});
  }
  // Transit-to-transit and transit-to-stub pairs.
  for (std::uint32_t t = 0; t < base; ++t) {
    check_pair(HostIndex{t}, HostIndex{(t * 31) % base});
    check_pair(HostIndex{t}, HostIndex{base + (t * 53) % (u.num_hosts() - base)});
  }
}

TEST(HierarchicalRouting, RoutingMemoryIsLinearNotQuadratic) {
  Rng topo_rng{47};
  const auto p = TransitStubParams::for_total_nodes(2000);
  Rng cap{5};
  const Underlay u{generate_transit_stub(p, topo_rng), cap};
  const std::size_t v = u.num_hosts();
  const std::size_t t = u.topology().num_transit_nodes;
  const std::size_t n = p.stub_nodes_per_domain;
  // Built: O(V) per-host and per-domain state plus the T*T core tables
  // (12 B a pair).  The three V*V tables would be 12 B a pair of hosts.
  const std::size_t built = u.routing_memory_bytes();
  EXPECT_LE(built, v * 16 + t * t * 12);
  EXPECT_GT(v * v * 12, built * 100);
  // Each stub domain queried adds its n*n table, 12 B a pair: O(V * n) for
  // every domain at once, still far below V^2.
  const auto first = static_cast<std::uint32_t>(t);
  (void)u.latency(HostIndex{first}, HostIndex{first + 1});
  const std::size_t one = u.routing_memory_bytes();
  EXPECT_EQ(one - built, n * n * 12);
  for (std::uint32_t h = first; h + 1 < v; ++h) {
    (void)u.latency(HostIndex{h}, HostIndex{h + 1});
  }
  EXPECT_LE(u.routing_memory_bytes(), v * 16 + t * t * 12 + v * n * 12);
  EXPECT_GT(v * v * 12, u.routing_memory_bytes() * 10);
}

TEST(HierarchicalRouting, RoutesUnstructuredTopologyAsOneCore) {
  // A topology without the single-gateway transit-stub shape cannot use the
  // decomposition; the Underlay routes it as one core of all V nodes.
  Topology topo;
  const Edge cycle[] = {{0, 1, 10}, {1, 2, 10}, {2, 3, 10}, {3, 0, 10}};
  topo.graph = Graph{4, cycle};
  topo.role.assign(4, NodeRole::kStub);
  topo.domain.assign(4, 0);
  topo.num_transit_nodes = 0;
  Rng cap{1};
  const Underlay u{std::move(topo), cap};
  EXPECT_EQ(u.routing_memory_bytes(), 4u * 4u * 12u);  // core tables only
  EXPECT_EQ(u.latency(HostIndex{0}, HostIndex{2}).as_micros(), 20);
  EXPECT_EQ(u.path_hops(HostIndex{0}, HostIndex{2}), 2u);
  EXPECT_EQ(u.path_hops(HostIndex{3}, HostIndex{0}), 1u);
  // Ties settle by (distance, id): 0 -> 2 goes through 1, not 3.
  std::vector<EdgeIndex> walk;
  u.for_each_path_edge(HostIndex{0}, HostIndex{2},
                       [&walk](EdgeIndex e) { walk.push_back(e); });
  EXPECT_EQ(walk, (std::vector<EdgeIndex>{0, 1}));
}

/// One pair's full answer: latency, hop count and edge walk.
struct Route {
  std::int64_t latency_us = 0;
  std::uint32_t hops = 0;
  std::vector<EdgeIndex> edges;
  bool operator==(const Route&) const = default;
};

Route route_of(const Underlay& u, HostIndex a, HostIndex b) {
  Route r;
  r.latency_us = u.latency(a, b).as_micros();
  r.hops = u.path_hops(a, b);
  u.for_each_path_edge(a, b, [&r](EdgeIndex e) { r.edges.push_back(e); });
  return r;
}

TEST(HierarchicalRouting, SharedUnderlayAnswersAlikeOnEveryThread) {
  // Four threads query the same-domain pairs of one Underlay whose domain
  // tables are all cold, so they race to build and publish them.  Every
  // answer must equal the one a single thread gets from its own instance.
  Rng topo_rng{53};
  const Topology topo =
      generate_transit_stub(TransitStubParams::for_total_nodes(600), topo_rng);
  std::vector<std::pair<HostIndex, HostIndex>> pairs;
  for (std::uint32_t a = topo.num_transit_nodes; a < topo.graph.num_nodes();
       ++a) {
    for (std::uint32_t b = a; b < topo.graph.num_nodes() &&
                              topo.domain[b] == topo.domain[a];
         b += 3) {
      pairs.emplace_back(HostIndex{a}, HostIndex{b});
      pairs.emplace_back(HostIndex{b}, HostIndex{a});
    }
  }
  Rng cap_a{9};
  Rng cap_b{9};
  const Underlay reference{topo, cap_a};
  std::vector<Route> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) expected.push_back(route_of(reference, a, b));

  const Underlay shared{topo, cap_b};
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      // Each thread starts a quarter further along, so first uses collide.
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t j = (i + k * pairs.size() / kThreads) % pairs.size();
        const auto& [a, b] = pairs[j];
        if (!(route_of(shared, a, b) == expected[j])) ++mismatches[k];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(mismatches[k], 0u) << "thread " << k;
  }
  EXPECT_EQ(shared.routing_memory_bytes(), reference.routing_memory_bytes());
}

/// FNV-1a over 32-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// The underlay routes through the transit-stub decomposition.  The same
/// topology with its structure stripped (num_transit_nodes = 0) is one core
/// of V nodes, routed by one whole-graph Dijkstra per host.  Every pair
/// must agree on latency, hop count and the full edge walk.  The first
/// seed's topology is the harness's (Rng{seed}.fork(1)).
void expect_composed_tables_equal_whole_graph(std::uint32_t hosts) {
  const auto params = TransitStubParams::for_total_nodes(hosts);
  ASSERT_EQ(params.total_nodes(), hosts);
  // One pointer captured, so the std::function holds it inline.
  struct Walk {
    std::vector<EdgeIndex> edges;
    std::size_t at = 0;
    bool same = true;
  } walk;
  Walk* w = &walk;
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    Rng topo_rng = Rng{seed}.fork(1);
    const Topology topo = generate_transit_stub(params, topo_rng);
    Topology stripped = topo;
    stripped.num_transit_nodes = 0;
    Rng cap_a{seed};
    Rng cap_b{seed};
    const Underlay composed{topo, cap_a};
    const Underlay whole{std::move(stripped), cap_b};
    for (std::uint32_t a = 0; a < hosts; ++a) {
      for (std::uint32_t b = 0; b < hosts; ++b) {
        const HostIndex from{a};
        const HostIndex to{b};
        ASSERT_EQ(composed.latency(from, to), whole.latency(from, to))
            << "seed " << seed << ", pair (" << a << ", " << b << ")";
        ASSERT_EQ(composed.path_hops(from, to), whole.path_hops(from, to))
            << "seed " << seed << ", pair (" << a << ", " << b << ")";
        walk.edges.clear();
        whole.for_each_path_edge(
            from, to, [w](EdgeIndex e) { w->edges.push_back(e); });
        walk.at = 0;
        walk.same = true;
        composed.for_each_path_edge(from, to, [w](EdgeIndex e) {
          w->same = w->same && w->at < w->edges.size() && w->edges[w->at] == e;
          ++w->at;
        });
        ASSERT_TRUE(walk.same && walk.at == walk.edges.size())
            << "seed " << seed << ", pair (" << a << ", " << b
            << "): edge walks differ";
      }
    }
  }
}

TEST(UnderlayConstruction, ComposedTablesEqualWholeGraphAt64Hosts) {
  expect_composed_tables_equal_whole_graph(64);
}

TEST(UnderlayConstruction, ComposedTablesEqualWholeGraphAt448Hosts) {
  expect_composed_tables_equal_whole_graph(448);
}

TEST(UnderlayConstruction, ComposedTablesEqualWholeGraphAt1024Hosts) {
  expect_composed_tables_equal_whole_graph(1024);
}

TEST(UnderlayConstruction, ComposedTablesEqualWholeGraphAt3040Hosts) {
  expect_composed_tables_equal_whole_graph(3040);
}

/// The locator query (the transport's per-hop path) equals latency() for
/// every pair: a cold same-domain pair reads nullopt, as built_latency()
/// does, and answers once latency() has built the domain's table.
void expect_locator_latency_equals_latency(const Underlay& u, HostIndex a,
                                           HostIndex b) {
  const Underlay::Locator la = u.locate(a);
  const Underlay::Locator lb = u.locate(b);
  ASSERT_EQ(u.built_latency(a, la, b, lb).has_value(),
            u.built_latency(a, b).has_value())
      << "pair (" << a << ", " << b << ")";
  const sim::SimTime reference = u.latency(a, b);
  const auto located = u.built_latency(a, la, b, lb);
  ASSERT_TRUE(located.has_value()) << "pair (" << a << ", " << b << ")";
  ASSERT_EQ(*located, reference) << "pair (" << a << ", " << b << ")";
}

TEST(UnderlayLocator, EveryPairOfThePinnedTopologiesMatchesLatency) {
  for (const std::uint32_t hosts : {64u, 448u, 1024u, 3040u}) {
    const auto params = TransitStubParams::for_total_nodes(hosts);
    for (const std::uint64_t seed : {42u, 7u, 1234u}) {
      Rng topo_rng = Rng{seed}.fork(1);
      Rng cap{seed};
      const Underlay u{generate_transit_stub(params, topo_rng), cap};
      for (std::uint32_t a = 0; a < u.num_hosts(); ++a) {
        const Underlay::Locator la = u.locate(HostIndex{a});
        const bool core = a < u.topology().num_transit_nodes;
        EXPECT_EQ(la.domain == Underlay::kCoreDomain, core) << "host " << a;
        if (core) {
          EXPECT_EQ(la.anchor, a);
          EXPECT_EQ(la.uplink_us, 0u);
        }
        for (std::uint32_t b = 0; b < u.num_hosts(); ++b) {
          expect_locator_latency_equals_latency(u, HostIndex{a}, HostIndex{b});
          if (HasFatalFailure()) {
            FAIL() << hosts << " hosts, seed " << seed;
          }
        }
      }
    }
  }
}

TEST(UnderlayLocator, SampledPairsAtOneHundredThousandHostsMatchLatency) {
  Rng topo_rng = Rng{42}.fork(1);
  Rng cap{42};
  const Underlay u{generate_transit_stub(
                       TransitStubParams::for_total_nodes(100'000), topo_rng),
                   cap};
  ASSERT_GE(u.num_hosts(), 100'000u);
  Rng pick{9};
  for (int i = 0; i < 100'000; ++i) {
    const HostIndex a{static_cast<std::uint32_t>(pick.index(u.num_hosts()))};
    const HostIndex b{static_cast<std::uint32_t>(pick.index(u.num_hosts()))};
    expect_locator_latency_equals_latency(u, a, b);
    if (HasFatalFailure()) FAIL() << "sample " << i;
  }
}

TEST(UnderlayConstruction, HarnessRoutingTablesArePinned) {
  // Which of several equal-latency paths a pair takes depends on the tie
  // rule: settle in (distance, id) order, relax on strict improvement.  Any
  // rule that reads only distances and ids inside the subgraph composes
  // consistently, so the comparison above cannot tell one from another;
  // these digests of every pair's latency, hop count and edge walk on the
  // harness's seed-42 topologies (1,000 and ~3,000 peers) pin the rule the
  // per-host whole-graph Dijkstra tables were built with.
  const std::pair<std::uint32_t, std::uint64_t> kPinned[] = {
      {1001u, 0xfe9ed941c3fc9706ull}, {3000u, 0xe284da04df7ab285ull}};
  for (const auto& [nodes, pinned] : kPinned) {
    Rng rng = Rng{42}.fork(1);
    const Underlay u{
        generate_transit_stub(TransitStubParams::for_total_nodes(nodes), rng),
        rng};
    Fnv fnv;
    Fnv* f = &fnv;
    for (std::uint32_t a = 0; a < u.num_hosts(); ++a) {
      for (std::uint32_t b = 0; b < u.num_hosts(); ++b) {
        fnv.add(static_cast<std::uint32_t>(
            u.latency(HostIndex{a}, HostIndex{b}).as_micros()));
        fnv.add(u.path_hops(HostIndex{a}, HostIndex{b}));
        u.for_each_path_edge(HostIndex{a}, HostIndex{b},
                             [f](EdgeIndex e) { f->add(e); });
      }
    }
    EXPECT_EQ(fnv.h, pinned) << nodes << " nodes: digest 0x" << std::hex
                             << fnv.h;
  }
}

TEST(TransitStub, PaperScaleTopologiesArePinned) {
  // The topologies of the paper-scale runs (harness seed 42, one host per
  // peer plus the server) must not drift: every edge with its latency and
  // id, every role and domain.  Any change to generate_transit_stub or
  // for_total_nodes at <= 3k hosts moves these.  The 20,072- and
  // 100,360-host topologies (20k and 100k peers; the latter is the
  // quiet_100k world) were recorded from the generator that grew one
  // adjacency vector per node, so they pin the compressed-row build
  // exactly where its memory goes.
  const std::pair<std::uint32_t, std::uint64_t> kPinned[] = {
      {1001u, 0xf5255657c84853fcull},
      {3000u, 0x2c51a7abfc5bc31cull},
      {20001u, 0x20493c4b81bae665ull},
      {100001u, 0x5b045709a6f5f3eaull}};
  for (const auto& [nodes, pinned] : kPinned) {
    Rng rng = Rng{42}.fork(1);
    const Topology topo =
        generate_transit_stub(TransitStubParams::for_total_nodes(nodes), rng);
    Fnv fnv;
    fnv.add(topo.num_transit_nodes);
    fnv.add(static_cast<std::uint32_t>(topo.graph.num_nodes()));
    fnv.add(static_cast<std::uint32_t>(topo.graph.num_edges()));
    for (std::uint32_t n = 0; n < topo.graph.num_nodes(); ++n) {
      fnv.add(static_cast<std::uint32_t>(topo.role[n]));
      fnv.add(topo.domain[n]);
      for (const HalfEdge& h : topo.graph.neighbors(n)) {
        fnv.add(h.to);
        fnv.add(h.latency_us);
        fnv.add(h.edge);
      }
    }
    EXPECT_EQ(fnv.h, pinned) << nodes << " nodes: digest 0x" << std::hex
                             << fnv.h;
  }
}

TEST(LinkStress, IntraStubFasterThanInterTransit) {
  // Structural sanity of the latency classes: two hosts in the same stub
  // domain should typically be closer than hosts in different transit
  // domains.
  Rng rng{31};
  auto p = TransitStubParams::for_total_nodes(400);
  Topology topo = generate_transit_stub(p, rng);
  const std::vector<std::uint32_t> domain = topo.domain;  // copy before move
  Underlay u{std::move(topo), rng};
  // Hosts in the same stub domain (stub indices start after transit nodes).
  const std::uint32_t base = u.topology().num_transit_nodes;
  std::int64_t same = 0;
  std::int64_t diff = 0;
  int same_n = 0;
  int diff_n = 0;
  for (std::uint32_t i = base; i < u.num_hosts() - 1; i += 13) {
    for (std::uint32_t j = i + 1; j < u.num_hosts(); j += 29) {
      const auto l = u.latency(HostIndex{i}, HostIndex{j}).as_micros();
      if (domain[i] == domain[j]) {
        same += l;
        ++same_n;
      } else {
        diff += l;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(diff_n, 0);
  EXPECT_LT(same / same_n, diff / diff_n);
}

}  // namespace
}  // namespace hp2p::net
