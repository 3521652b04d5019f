// Underlay routing: shortest-path latencies and path recovery on top of a
// generated topology.
//
// Every overlay hop in the simulation maps to one source->destination
// traversal of the underlay; its cost is the Dijkstra shortest-path delay,
// and link-stress accounting walks the physical edges of that path (the
// paper's Section 5.2 metric).
//
// One backend routes every size, through the transit-stub decomposition.
// Each stub domain hangs off the transit core by exactly ONE gateway edge,
// so every cross-domain shortest path splits exactly as
//     intra(u, gw_A) + gate_A + core(t_A, t_B) + gate_B + intra(gw_B, v).
// Construction keeps the pieces every query needs: an all-pairs table over
// the (tiny) transit core and each stub node's distance to its gateway,
// O(V + T^2) memory.  Each stub domain (n <= 64 nodes) also gets an n*n
// table of latency, first hop and first edge, built on the first query
// that needs it and published through an atomic pointer, so an Underlay
// shared by const reference across threads needs no lock.  Runs touch few
// domains: a lazy table costs only what is queried.  A topology without
// the transit-stub shape becomes one core of all V nodes, answered by the
// same code with every node a core node.  One range-restricted Dijkstra
// (shortest_paths) computes every table.
//
// Paths are chased one first hop at a time, exactly as per-source
// whole-graph tables would be.  The next hop from u toward t is
//   u a core node:             core_next(u, anchor(t)), or at that anchor
//                              the gateway of t's domain;
//   u a stub node, t inside:   the domain table's first hop;
//   u a stub node, t outside:  the gateway edge at the gateway, else the
//                              domain table's first hop toward the gateway.
// Paths settle in (distance, node id) order and relax only on strict
// improvement, so a node's parent is its lowest (distance, id) predecessor
// in any subgraph that holds every shortest path to it; a path leaving a
// stub domain must cross its single gateway edge, and re-entering any
// domain would reuse such an edge.  Every latency, hop count and edge walk
// therefore equals that of whole-graph per-source Dijkstra bit for bit
// (net_test strips the structure off generated topologies and compares
// every pair; DESIGN.md §5.21).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// The routed underlay: topology + shortest-path state + host capacities.
/// Logically immutable after construction: the stub-domain tables fill in
/// on first use, published atomically, so replicas running on different
/// threads can share one instance by const reference.
class Underlay {
 public:
  /// Builds routing state: one Dijkstra per core node over the core and
  /// one per stub domain from its gateway, O(T * E_core log T + E log n)
  /// time (n = nodes per stub domain) and O(V + T^2) memory.  An
  /// unstructured topology is one core: one whole-graph Dijkstra per host
  /// and V^2 tables.  `capacity_rng` deals the 1/3:1/3:1/3 capacity
  /// classes.
  Underlay(Topology topology, Rng& capacity_rng);

  [[nodiscard]] std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(topology_.graph.num_nodes());
  }
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// Bytes held by routing tables (excludes the topology itself).  The
  /// figure grows with the stub domains queried so far: each one's table
  /// is counted once it is built.
  [[nodiscard]] std::size_t routing_memory_bytes() const;

  /// Propagation delay of the shortest path between two hosts.
  [[nodiscard]] sim::SimTime latency(HostIndex from, HostIndex to) const {
    return sim::SimTime::micros(static_cast<std::int64_t>(
        latency_us(from.value(), to.value(), true)));
  }

  /// latency(), or nullopt when answering would first build the table of
  /// the stub domain both hosts share.  Lets a caller charge the one-off
  /// build to a frame of its own (build_tables).
  [[nodiscard]] std::optional<sim::SimTime> built_latency(HostIndex from,
                                                          HostIndex to) const {
    const std::uint64_t us = latency_us(from.value(), to.value(), false);
    if (us == kUnbuilt) return std::nullopt;
    return sim::SimTime::micros(static_cast<std::int64_t>(us));
  }

  /// Locator::domain of a core node.
  static constexpr std::uint32_t kCoreDomain = ~std::uint32_t{0};

  /// Where a host attaches to the transit core: everything a cross-domain
  /// latency query reads about one endpoint, in 12 bytes.  A caller that
  /// keeps it beside its own per-host record (proto::OverlayNetwork does)
  /// answers such a query from that record plus one core-table cell.
  struct Locator {
    std::uint32_t domain = kCoreDomain;  // stub domain id, or kCoreDomain
    std::uint32_t anchor = 0;     // core node anchoring the domain (or self)
    std::uint32_t uplink_us = 0;  // gateway walk + gateway edge; 0 for core
  };
  static_assert(sizeof(Locator) == 12);

  [[nodiscard]] Locator locate(HostIndex host) const {
    const std::uint32_t n = host.value();
    if (is_core(n)) return {kCoreDomain, n, 0};
    return {topology_.domain[n], stub_of(n).anchor,
            narrow_latency(uplink_us(n))};
  }

  /// built_latency() from the two hosts' locate() records.  A cross-domain
  /// pair reads one core-table cell, uplink + core(anchor, anchor) +
  /// uplink; a same-domain pair takes the domain-table path.
  [[nodiscard]] std::optional<sim::SimTime> built_latency(
      HostIndex from, const Locator& at_from, HostIndex to,
      const Locator& at_to) const {
    if (at_from.domain == at_to.domain && at_from.domain != kCoreDomain) {
      return built_latency(from, to);
    }
    return sim::SimTime::micros(static_cast<std::int64_t>(
        std::uint64_t{at_from.uplink_us} +
        core_latency_us_[core_index(at_from.anchor, at_to.anchor)] +
        at_to.uplink_us));
  }

  /// Number of physical hops on the shortest path.
  [[nodiscard]] std::uint32_t path_hops(HostIndex from, HostIndex to) const;

  /// Invokes `fn(edge)` for every physical edge on the shortest path, in
  /// order from `from` to `to`.
  void for_each_path_edge(HostIndex from, HostIndex to,
                          const std::function<void(EdgeIndex)>& fn) const;

  /// Whether walking the path between two hosts would first build a stub
  /// domain's table (one per stub endpoint).
  [[nodiscard]] bool walk_cold(HostIndex from, HostIndex to) const {
    return from != to && (cold(from.value()) || cold(to.value()));
  }
  /// Builds the tables latency() between two hosts needs, or with `walk`
  /// the ones a path walk needs.
  void build_tables(HostIndex from, HostIndex to, bool walk) const;

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

  /// One (source, destination) entry of a stub domain's table.
  struct DomainCell {
    std::uint32_t latency_us = 0;
    std::uint32_t next = 0;  // first node of the path (global id)
    EdgeIndex edge = kNoEdge;  // edge of that first hop
  };

  /// A stub domain's n*n cells, row = source, column = destination (both
  /// as offsets from first_node); null until first use.  Owns the cells.
  struct DomainTable {
    std::atomic<DomainCell*> cells{nullptr};
    ~DomainTable() { delete[] cells.load(std::memory_order_relaxed); }
  };

  /// One step of a path: the next node and the edge that reaches it.
  struct Hop {
    std::uint32_t node;
    EdgeIndex edge;
  };

  /// Shortest-path tree from one source over the nodes [lo, hi); arrays
  /// are indexed by (node - lo).  `first_hop`/`first_edge` are the
  /// source's first step toward each node (kNoNode/kNoEdge at the source).
  /// The heap is scratch, kept here so reuse allocates nothing.
  struct PathTree {
    std::vector<std::uint64_t> dist_us;
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

  /// latency_us() of a pair whose stub-domain table is not built yet and
  /// `build` is false.
  static constexpr std::uint64_t kUnbuilt = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t latency_us(std::uint32_t from, std::uint32_t to,
                                         bool build) const;
  /// First step of the shortest path from `u` toward `t` (u != t).
  [[nodiscard]] Hop next_hop(std::uint32_t u, std::uint32_t t) const;
  /// Fills stub_domains_ and gw_dist_us_.  Returns false (state left
  /// empty) when the topology lacks the single-gateway transit-stub
  /// structure the decomposition needs.
  [[nodiscard]] bool find_stub_domains();
  /// All-pairs tables over the core nodes [0, core_size_).
  void build_core();

  /// `us` as 32 bits; asserts it fits.
  [[nodiscard]] static std::uint32_t narrow_latency(std::uint64_t us);

  [[nodiscard]] bool is_core(std::uint32_t node) const {
    return node < core_size_;
  }
  [[nodiscard]] const StubDomain& stub_of(std::uint32_t node) const {
    return stub_domains_[topology_.domain[node]];
  }
  [[nodiscard]] std::size_t core_index(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * core_size_ + b;
  }
  /// Core node anchoring `node`'s domain (or `node` itself if core).
  [[nodiscard]] std::uint32_t anchor_of(std::uint32_t node) const {
    return is_core(node) ? node : stub_of(node).anchor;
  }
  /// (gateway-walk latency + gateway edge), 0 for core nodes.
  [[nodiscard]] std::uint64_t uplink_us(std::uint32_t node) const {
    if (is_core(node)) return 0;
    return gw_dist_us_[node] + stub_of(node).gateway_latency_us;
  }
  /// True when `node` is a stub node whose domain table is not built yet.
  [[nodiscard]] bool cold(std::uint32_t node) const {
    return !is_core(node) &&
           tables_[topology_.domain[node]].cells.load(
               std::memory_order_acquire) == nullptr;
  }
  /// Cell (from, to) of their common stub domain's table, built on demand.
  [[nodiscard]] const DomainCell& cell(std::uint32_t from,
                                       std::uint32_t to) const;
  /// Domain `d`'s cells: built and published by the first caller; a racing
  /// builder discards its copy and reads the winner's.
  [[nodiscard]] const DomainCell* domain_cells(std::uint32_t d) const;

  Topology topology_;
  std::vector<CapacityClass> capacity_;  // per host
  /// Nodes [0, core_size_) form the core: the transit nodes of a
  /// transit-stub topology, every node of an unstructured one.
  std::uint32_t core_size_ = 0;
  std::vector<StubDomain> stub_domains_;  // indexed by domain id
  // Per stub node: shortest-path latency to its domain gateway; 0 for core
  // nodes.
  std::vector<std::uint32_t> gw_dist_us_;
  // All-pairs over the core only (core_size_^2).
  std::vector<std::uint32_t> core_latency_us_;
  std::vector<std::uint32_t> core_next_;  // next core node on the path
  std::vector<EdgeIndex> core_next_edge_;
  std::unique_ptr<DomainTable[]> tables_;  // one per stub_domains_ entry
};

}  // namespace hp2p::net
