// Underlay routing: shortest-path latencies and path recovery on top of a
// generated topology.
//
// Every overlay hop in the simulation maps to one source->destination
// traversal of the underlay; its cost is the Dijkstra shortest-path delay,
// and link-stress accounting walks the physical edges of that path (the
// paper's Section 5.2 metric).
//
// Every Underlay is built through one decomposition.  In a transit-stub
// topology each stub domain hangs off the transit core by exactly ONE
// gateway edge, so every cross-domain shortest path splits exactly as
//     intra(u, gw_A) + gate_A + core(t_A, t_B) + gate_B + intra(gw_B, v).
// The build keeps O(V) per-node gateway trees plus an all-pairs table over
// the (tiny) transit core.  A topology without that shape becomes one core
// of all V nodes.  One range-restricted Dijkstra (shortest_paths) computes
// every piece: the core rows, the gateway trees and the intra-domain trees.
//
// Two routing backends share one query interface:
//
//   kDense         Materialises the V*V tables (latency, first hop, first
//                  edge) from the decomposition: a transit row is its core
//                  row plus per-domain offsets, a stub row is one
//                  intra-domain Dijkstra plus its anchor's row shifted by a
//                  constant.  O(V^2) memory and time, O(1) queries.  Fine
//                  to ~4k hosts, impossible at 100k (120 GB).
//   kHierarchical  Keeps the decomposition itself: O(V + T^2) memory;
//                  same-domain queries run a bounded intra-domain Dijkstra
//                  on demand, cached per thread for the last root.
//
// Both are exact.  Paths settle in (distance, node id) order and relax only
// on strict improvement, so a node's parent is its lowest (distance, id)
// predecessor in any subgraph that holds every shortest path to it; a path
// leaving a stub domain must cross its single gateway edge, and re-entering
// any domain would reuse such an edge.  The composed dense tables therefore
// equal whole-graph per-source Dijkstra tables bit for bit (net_test strips
// the structure off generated topologies and compares every pair), and
// hierarchical latencies equal the dense ones.
//
// kAuto picks kDense below kDenseRoutingThreshold hosts (preserving the
// historical byte-identical behaviour of every paper-scale experiment) and
// kHierarchical above it.  A topology without the expected structure routes
// densely; routing_mode() reports what was chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/transit_stub.hpp"
#include "sim/time.hpp"

namespace hp2p::net {

/// Link-capacity class of a host's access link (Section 5.1: 1/3 of peers in
/// each class, fastest = 10x slowest).
enum class CapacityClass : std::uint8_t { kLow, kMedium, kHigh };

/// Bits per second of each capacity class.  Low is dial-up-ish; the exact
/// constants only scale the transmission-delay term.
[[nodiscard]] constexpr double capacity_bps(CapacityClass c) {
  switch (c) {
    case CapacityClass::kLow:
      return 1e6;
    case CapacityClass::kMedium:
      return 3.16e6;  // geometric midpoint of 1x and 10x
    case CapacityClass::kHigh:
      return 1e7;
  }
  return 1e6;
}

/// Per-physical-edge message-copy counters (link stress, Section 5.2).
///
/// Dense mode keeps one counter per edge; sparse mode keeps counters only
/// for edges actually touched (hash map), which is what a sampled run at
/// 100k+ hosts wants.  Both modes report identical max_stress() /
/// mean_stress() / total_copies() values: the mean still divides by the
/// full edge count, and max/total are maintained incrementally on bump()
/// (counters only grow, so the running max never goes stale).
class LinkStress {
 public:
  enum class Mode : std::uint8_t { kAuto, kDense, kSparse };

  /// Edge-count threshold above which kAuto picks sparse storage.
  static constexpr std::size_t kSparseThreshold = std::size_t{1} << 20;

  explicit LinkStress(std::size_t num_edges, Mode mode = Mode::kAuto);

  void bump(EdgeIndex e) {
    std::uint64_t c;
    if (sparse_) {
      c = ++sparse_counts_[e];
    } else {
      c = ++counts_[e];
    }
    ++total_;
    if (c > max_) max_ = c;
  }

  [[nodiscard]] std::uint64_t count(EdgeIndex e) const {
    if (!sparse_) return counts_[e];
    const auto it = sparse_counts_.find(e);
    return it == sparse_counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t max_stress() const { return max_; }
  [[nodiscard]] double mean_stress() const;
  [[nodiscard]] std::uint64_t total_copies() const { return total_; }
  [[nodiscard]] bool sparse() const { return sparse_; }

 private:
  std::size_t num_edges_;
  bool sparse_;
  std::vector<std::uint64_t> counts_;  // dense storage
  // Lookup/insert only -- never iterated, so hash order cannot leak into
  // any result.
  std::unordered_map<std::uint32_t, std::uint64_t> sparse_counts_;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

/// Which shortest-path backend an Underlay uses.
enum class RoutingMode : std::uint8_t { kAuto, kDense, kHierarchical };

/// The routed underlay: topology + shortest-path state + host capacities.
/// Immutable after construction, so replicas running on different threads
/// can share one instance by const reference (hierarchical on-demand
/// queries use thread-local scratch only).
class Underlay {
 public:
  /// Host count at or below which kAuto routes densely.
  static constexpr std::uint32_t kDenseRoutingThreshold = 4096;

  /// Builds routing state.  Decomposition: one Dijkstra per transit node
  /// over the core and one per stub domain from its gateway, O(T * E_core
  /// log T + E log n) time (n = nodes per stub domain).  Dense adds one
  /// intra-domain Dijkstra per stub host and the V*V fill, O(V^2) time and
  /// memory.  Hierarchical keeps O(V + T^2) memory.  An unstructured
  /// topology costs one whole-graph Dijkstra per host.
  /// `capacity_rng` deals the 1/3:1/3:1/3 capacity classes; the draw
  /// sequence is identical in every mode.
  Underlay(Topology topology, Rng& capacity_rng,
           RoutingMode mode = RoutingMode::kAuto);

  [[nodiscard]] std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(topology_.graph.num_nodes());
  }
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Backend actually in use (kAuto and structure fallbacks resolved).
  [[nodiscard]] RoutingMode routing_mode() const { return mode_; }

  /// Bytes held by routing tables (the O(V^2) vs O(V) story in one number;
  /// excludes the topology itself, which both modes share).
  [[nodiscard]] std::size_t routing_memory_bytes() const;

  /// Propagation delay of the shortest path between two hosts.
  [[nodiscard]] sim::SimTime latency(HostIndex from, HostIndex to) const {
    return sim::SimTime::micros(
        static_cast<std::int64_t>(latency_us(from.value(), to.value())));
  }

  /// Number of physical hops on the shortest path.
  [[nodiscard]] std::uint32_t path_hops(HostIndex from, HostIndex to) const;

  /// Invokes `fn(edge)` for every physical edge on the shortest path, in
  /// order from `from` to `to`.
  void for_each_path_edge(HostIndex from, HostIndex to,
                          const std::function<void(EdgeIndex)>& fn) const;

  /// Access-link capacity class of a host.
  [[nodiscard]] CapacityClass capacity(HostIndex host) const {
    return capacity_[host.value()];
  }

  /// Transmission delay of `bytes` over the slower of the two endpoints'
  /// access links (the bottleneck model of Section 5.1).
  [[nodiscard]] sim::SimTime transmission_delay(HostIndex from, HostIndex to,
                                                std::uint32_t bytes) const;

  /// Mean landmark-style distance vector for a host: latencies to the given
  /// landmark hosts, used by the Section 5.2 binning scheme.
  [[nodiscard]] std::vector<sim::SimTime> distances_to(
      HostIndex host, const std::vector<HostIndex>& landmarks) const;

 private:
  /// One stub domain's attachment to the transit core.
  struct StubDomain {
    std::uint32_t first_node = 0;  // members are [first_node, first+count)
    std::uint32_t num_nodes = 0;
    std::uint32_t gateway = 0;  // stub node holding the up-link
    std::uint32_t anchor = 0;   // transit node the gateway connects to
    EdgeIndex gateway_edge = kNoEdge;
    std::uint32_t gateway_latency_us = 0;
  };

  /// Shortest-path tree from one source over the nodes [lo, hi); arrays
  /// are indexed by (node - lo).  `parent` is the previous node on the path
  /// from the source (the next node toward it); `first_hop`/`first_edge`
  /// are the source's first step toward each node (kNoNode/kNoEdge at the
  /// source).  The heap is scratch, kept here so reuse allocates nothing.
  struct PathTree {
    std::vector<std::uint64_t> dist_us;
    std::vector<std::uint32_t> parent;
    std::vector<EdgeIndex> parent_edge;
    std::vector<std::uint32_t> hops;
    std::vector<std::uint32_t> first_hop;
    std::vector<EdgeIndex> first_edge;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  };

  /// The one Dijkstra: shortest paths from `source` over the subgraph
  /// induced by [lo, hi).  Settles nodes in (distance, node id) order and
  /// relaxes only on strict improvement, so ties resolve to the lowest
  /// (distance, id) predecessor.
  void shortest_paths(std::uint32_t lo, std::uint32_t hi,
                      std::uint32_t source, PathTree& tree) const;

  /// Thread-local cache entry for on-demand intra-domain queries: the
  /// tree of `root`'s stub domain rooted at `root`, so repeated queries
  /// against the same (underlay, root) are free.
  struct IntraTree {
    std::uint64_t owner_id = 0;  // Underlay instance id (0 = empty cache)
    std::uint32_t root = UINT32_MAX;
    PathTree tree;
  };

  [[nodiscard]] std::uint64_t latency_us(std::uint32_t from,
                                         std::uint32_t to) const;
  [[nodiscard]] std::size_t dense_index(std::uint32_t from,
                                        std::uint32_t to) const {
    // 64-bit product: from * V overflows 32 bits past ~65k hosts.
    return static_cast<std::size_t>(from) * topology_.graph.num_nodes() + to;
  }
  /// Fills stub_domains_ and the gateway trees.  Returns false (state
  /// left empty) when the topology lacks the single-gateway transit-stub
  /// structure the decomposition needs.
  [[nodiscard]] bool find_stub_domains();
  /// All-pairs tables over the core nodes [0, core), written row by row
  /// (stride `core`) into the three given tables.
  void build_core(std::uint32_t core, std::vector<std::uint32_t>& latency_us,
                  std::vector<std::uint32_t>& first_hop,
                  std::vector<EdgeIndex>& first_edge) const;
  /// V*V tables composed from the core and the stub domains; releases the
  /// decomposition afterwards.
  void build_dense();

  [[nodiscard]] bool is_transit(std::uint32_t node) const {
    return node < topology_.num_transit_nodes;
  }
  [[nodiscard]] const StubDomain& stub_of(std::uint32_t node) const {
    return stub_domains_[topology_.domain[node]];
  }
  [[nodiscard]] std::size_t core_index(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * topology_.num_transit_nodes + b;
  }
  /// Transit node anchoring `node`'s domain (or `node` itself if transit).
  [[nodiscard]] std::uint32_t anchor_of(std::uint32_t node) const {
    return is_transit(node) ? node : stub_of(node).anchor;
  }
  /// (gateway-walk latency + gateway edge), 0 for transit nodes.
  [[nodiscard]] std::uint64_t uplink_us(std::uint32_t node) const {
    if (is_transit(node)) return 0;
    return gw_dist_us_[node] + stub_of(node).gateway_latency_us;
  }
  /// Shortest-path tree of `root`'s stub domain rooted at `root`, from the
  /// thread-local cache (recomputed only when (owner, root) changes).
  [[nodiscard]] const PathTree& intra_tree(std::uint32_t root) const;

  Topology topology_;
  RoutingMode mode_ = RoutingMode::kDense;
  /// Process-unique id; distinguishes this instance from a destroyed one
  /// that happened to reuse its address (thread-local tree cache validity).
  std::uint64_t instance_id_;
  std::vector<CapacityClass> capacity_;  // per host

  // --- dense backend (V*V tables) ---
  std::vector<std::uint32_t> dense_latency_us_;
  std::vector<std::uint32_t> dense_first_hop_;  // next node from->to
  std::vector<EdgeIndex> dense_first_edge_;     // edge of that hop

  // --- decomposition (kept by the hierarchical backend) ---
  std::vector<StubDomain> stub_domains_;  // indexed by domain id
  // Per stub node: shortest path to its domain gateway (tree rooted at the
  // gateway); zeros/kNoEdge for transit nodes.
  std::vector<std::uint32_t> gw_dist_us_;
  std::vector<std::uint32_t> gw_parent_;  // next node toward the gateway
  std::vector<EdgeIndex> gw_parent_edge_;
  std::vector<std::uint32_t> gw_hops_;
  // All-pairs over the transit core only (T*T, T = num_transit_nodes).
  std::vector<std::uint32_t> core_latency_us_;
  std::vector<std::uint32_t> core_next_;  // next transit node on the path
  std::vector<EdgeIndex> core_next_edge_;
};

}  // namespace hp2p::net
