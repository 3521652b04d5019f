#include "net/underlay.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <functional>
#include <utility>

namespace hp2p::net {
namespace {

constexpr std::uint64_t kInf64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

/// Monotone instance ids for the thread-local intra-tree cache.
std::atomic<std::uint64_t> g_next_underlay_id{1};

std::uint32_t narrow_latency(std::uint64_t us) {
  // Path latencies are bounded by diameter * max link latency (~seconds in
  // microseconds); anything near 2^32 us (~71 min) is a topology bug.
  assert(us < std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(us);
}

/// Frees a vector's storage (clear() keeps the capacity, which
/// routing_memory_bytes() counts).
template <typename T>
void release(std::vector<T>& vec) {
  std::vector<T>().swap(vec);
}

}  // namespace

LinkStress::LinkStress(std::size_t num_edges, Mode mode)
    : num_edges_(num_edges),
      sparse_(mode == Mode::kSparse ||
              (mode == Mode::kAuto && num_edges > kSparseThreshold)) {
  if (!sparse_) counts_.assign(num_edges, 0);
}

double LinkStress::mean_stress() const {
  if (num_edges_ == 0) return 0.0;
  return static_cast<double>(total_) / static_cast<double>(num_edges_);
}

Underlay::Underlay(Topology topology, Rng& capacity_rng, RoutingMode mode)
    : topology_(std::move(topology)),
      instance_id_(g_next_underlay_id.fetch_add(1)) {
  const std::size_t v = topology_.graph.num_nodes();
  RoutingMode want = mode;
  if (want == RoutingMode::kAuto) {
    want = v <= kDenseRoutingThreshold ? RoutingMode::kDense
                                       : RoutingMode::kHierarchical;
  }
  if (!find_stub_domains()) {
    // No transit-stub shape: the whole graph is one core.
    build_core(static_cast<std::uint32_t>(v), dense_latency_us_,
               dense_first_hop_, dense_first_edge_);
    mode_ = RoutingMode::kDense;
  } else {
    build_core(topology_.num_transit_nodes, core_latency_us_, core_next_,
               core_next_edge_);
    mode_ = want == RoutingMode::kHierarchical ? RoutingMode::kHierarchical
                                               : RoutingMode::kDense;
    if (mode_ == RoutingMode::kDense) build_dense();
  }

  // Deal capacity classes exactly 1/3 : 1/3 : 1/3 (paper Section 6),
  // shuffled so classes are uncorrelated with topology position.  The draw
  // sequence is mode-independent (routing construction consumes no RNG).
  capacity_.resize(v);
  std::vector<std::uint32_t> order(v);
  for (std::uint32_t i = 0; i < v; ++i) order[i] = i;
  capacity_rng.shuffle(order);
  for (std::size_t i = 0; i < v; ++i) {
    const std::size_t third = (i * 3) / v;
    capacity_[order[i]] = static_cast<CapacityClass>(third);
  }
}

std::size_t Underlay::routing_memory_bytes() const {
  auto bytes = [](const auto& vec) {
    return vec.capacity() * sizeof(vec[0]);
  };
  return bytes(dense_latency_us_) + bytes(dense_first_hop_) +
         bytes(dense_first_edge_) + bytes(stub_domains_) + bytes(gw_dist_us_) +
         bytes(gw_parent_) + bytes(gw_parent_edge_) + bytes(gw_hops_) +
         bytes(core_latency_us_) + bytes(core_next_) + bytes(core_next_edge_);
}

// --------------------------------------------------------------------------
// Construction: one Dijkstra, one decomposition.
// --------------------------------------------------------------------------

void Underlay::shortest_paths(std::uint32_t lo, std::uint32_t hi,
                              std::uint32_t source, PathTree& tree) const {
  const std::uint32_t n = hi - lo;
  tree.dist_us.assign(n, kInf64);
  tree.parent.assign(n, kNoNode);
  tree.parent_edge.assign(n, kNoEdge);
  tree.hops.assign(n, 0);
  tree.first_hop.assign(n, kNoNode);
  tree.first_edge.assign(n, kNoEdge);
  // Min-heap on (dist, node): equal distances settle the lowest id first.
  auto& heap = tree.heap;
  heap.clear();
  tree.dist_us[source - lo] = 0;
  heap.emplace_back(0, source);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    const std::uint32_t ui = u - lo;
    if (d != tree.dist_us[ui]) continue;  // superseded entry
    for (const HalfEdge& h : topology_.graph.neighbors(u)) {
      if (h.to < lo || h.to >= hi) continue;
      const std::uint32_t vi = h.to - lo;
      const std::uint64_t nd = d + h.latency_us;
      // Strict: the first settled predecessor at the final distance keeps
      // the node, and u is settled, so its first hop is already final.
      if (nd < tree.dist_us[vi]) {
        tree.dist_us[vi] = nd;
        tree.parent[vi] = u;
        tree.parent_edge[vi] = h.edge;
        tree.hops[vi] = tree.hops[ui] + 1;
        tree.first_hop[vi] = u == source ? h.to : tree.first_hop[ui];
        tree.first_edge[vi] = u == source ? h.edge : tree.first_edge[ui];
        heap.emplace_back(nd, h.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

bool Underlay::find_stub_domains() {
  const auto fail = [this] {
    release(stub_domains_);
    return false;
  };

  const std::uint32_t v =
      static_cast<std::uint32_t>(topology_.graph.num_nodes());
  const std::uint32_t t = topology_.num_transit_nodes;
  if (t == 0 || t > v) return fail();
  if (topology_.role.size() != v || topology_.domain.size() != v) {
    return fail();
  }
  for (std::uint32_t n = 0; n < v; ++n) {
    const bool transit_role = topology_.role[n] == NodeRole::kTransit;
    if (transit_role != (n < t)) return fail();  // transit block must lead
  }

  // Collect stub domains (member ranges must be contiguous) and their
  // gateway edges (each domain must touch the transit core exactly once).
  std::uint32_t max_domain = 0;
  for (std::uint32_t n = t; n < v; ++n) {
    max_domain = std::max(max_domain, topology_.domain[n]);
  }
  stub_domains_.assign(static_cast<std::size_t>(max_domain) + 1, StubDomain{});
  std::vector<std::uint32_t> lo(stub_domains_.size(), kNoNode);
  std::vector<std::uint32_t> hi(stub_domains_.size(), 0);
  std::vector<std::uint32_t> count(stub_domains_.size(), 0);
  for (std::uint32_t n = t; n < v; ++n) {
    const std::uint32_t d = topology_.domain[n];
    lo[d] = std::min(lo[d], n);
    hi[d] = std::max(hi[d], n);
    ++count[d];
  }
  for (std::uint32_t n = t; n < v; ++n) {
    const std::uint32_t d = topology_.domain[n];
    StubDomain& dom = stub_domains_[d];
    for (const HalfEdge& h : topology_.graph.neighbors(n)) {
      if (h.to < t) {
        // Up-link into the core: must be the domain's single gateway edge.
        if (dom.gateway_edge != kNoEdge && dom.gateway_edge != h.edge) {
          return fail();
        }
        dom.gateway = n;
        dom.anchor = h.to;
        dom.gateway_edge = h.edge;
        dom.gateway_latency_us = h.latency_us;
      } else if (topology_.domain[h.to] != d) {
        return fail();  // stub-to-foreign-stub edge breaks the decomposition
      }
    }
  }
  for (std::size_t d = 0; d < stub_domains_.size(); ++d) {
    if (count[d] == 0) continue;  // id unused by any stub node
    if (hi[d] - lo[d] + 1 != count[d]) return fail();  // not contiguous
    if (stub_domains_[d].gateway_edge == kNoEdge) return fail();
    stub_domains_[d].first_node = lo[d];
    stub_domains_[d].num_nodes = count[d];
  }

  // Per-domain gateway shortest-path trees (O(V) state total).
  gw_dist_us_.assign(v, 0);
  gw_parent_.assign(v, kNoNode);
  gw_parent_edge_.assign(v, kNoEdge);
  gw_hops_.assign(v, 0);
  PathTree tree;
  for (const StubDomain& dom : stub_domains_) {
    if (dom.num_nodes == 0) continue;
    shortest_paths(dom.first_node, dom.first_node + dom.num_nodes, dom.gateway,
                   tree);
    for (std::uint32_t i = 0; i < dom.num_nodes; ++i) {
      const std::uint32_t n = dom.first_node + i;
      gw_dist_us_[n] = narrow_latency(tree.dist_us[i]);
      gw_parent_[n] = tree.parent[i];
      gw_parent_edge_[n] = tree.parent_edge[i];
      gw_hops_[n] = tree.hops[i];
    }
  }
  return true;
}

void Underlay::build_core(std::uint32_t core,
                          std::vector<std::uint32_t>& latency_us,
                          std::vector<std::uint32_t>& first_hop,
                          std::vector<EdgeIndex>& first_edge) const {
  // In a transit-stub topology core paths never cross a stub domain --
  // doing so would use that domain's single gateway edge twice -- so
  // restricting Dijkstra to the transit nodes is exact.
  const std::size_t cells = static_cast<std::size_t>(core) * core;
  latency_us.resize(cells);
  first_hop.resize(cells);
  first_edge.resize(cells);
  PathTree tree;
  for (std::uint32_t s = 0; s < core; ++s) {
    shortest_paths(0, core, s, tree);
    const std::size_t row = static_cast<std::size_t>(s) * core;
    for (std::uint32_t e = 0; e < core; ++e) {
      latency_us[row + e] = narrow_latency(tree.dist_us[e]);
    }
    std::copy(tree.first_hop.begin(), tree.first_hop.end(),
              first_hop.begin() + static_cast<std::ptrdiff_t>(row));
    std::copy(tree.first_edge.begin(), tree.first_edge.end(),
              first_edge.begin() + static_cast<std::ptrdiff_t>(row));
  }
}

void Underlay::build_dense() {
  const std::uint32_t v =
      static_cast<std::uint32_t>(topology_.graph.num_nodes());
  const std::uint32_t t = topology_.num_transit_nodes;
  const std::size_t cells = static_cast<std::size_t>(v) * v;
  dense_latency_us_.resize(cells);
  dense_first_hop_.resize(cells);
  dense_first_edge_.resize(cells);

  // Transit rows: the core row, then each stub domain reached through its
  // anchor, the gateway edge and the gateway tree.
  for (std::uint32_t s = 0; s < t; ++s) {
    std::uint32_t* lat = &dense_latency_us_[dense_index(s, 0)];
    std::uint32_t* hop = &dense_first_hop_[dense_index(s, 0)];
    EdgeIndex* edge = &dense_first_edge_[dense_index(s, 0)];
    for (std::uint32_t e = 0; e < t; ++e) {
      lat[e] = core_latency_us_[core_index(s, e)];
      hop[e] = core_next_[core_index(s, e)];
      edge[e] = core_next_edge_[core_index(s, e)];
    }
    for (const StubDomain& dom : stub_domains_) {
      if (dom.num_nodes == 0) continue;
      const std::uint64_t up =
          core_latency_us_[core_index(s, dom.anchor)] + dom.gateway_latency_us;
      const bool at_anchor = s == dom.anchor;
      const std::uint32_t h =
          at_anchor ? dom.gateway : core_next_[core_index(s, dom.anchor)];
      const EdgeIndex eg =
          at_anchor ? dom.gateway_edge : core_next_edge_[core_index(s, dom.anchor)];
      const std::uint32_t first = dom.first_node;
      const std::uint32_t last = first + dom.num_nodes;
      for (std::uint32_t x = first; x < last; ++x) {
        lat[x] = narrow_latency(up + gw_dist_us_[x]);
      }
      std::fill(hop + first, hop + last, h);
      std::fill(edge + first, edge + last, eg);
    }
  }

  // Stub rows: every target outside the source's domain lies beyond the
  // gateway edge, so it is the anchor's row plus a constant and shares the
  // first step toward the gateway; the domain itself is one intra run.
  PathTree tree;
  for (const StubDomain& dom : stub_domains_) {
    if (dom.num_nodes == 0) continue;
    const std::uint32_t first = dom.first_node;
    const std::uint32_t last = first + dom.num_nodes;
    const std::uint32_t* anchor_lat =
        &dense_latency_us_[dense_index(dom.anchor, 0)];
    for (std::uint32_t s = first; s < last; ++s) {
      shortest_paths(first, last, s, tree);
      const std::uint32_t g = dom.gateway - first;
      const std::uint64_t up = tree.dist_us[g] + dom.gateway_latency_us;
      const bool at_gateway = s == dom.gateway;
      const std::uint32_t h = at_gateway ? dom.anchor : tree.first_hop[g];
      const EdgeIndex eg = at_gateway ? dom.gateway_edge : tree.first_edge[g];
      std::uint32_t* lat = &dense_latency_us_[dense_index(s, 0)];
      std::uint32_t* hop = &dense_first_hop_[dense_index(s, 0)];
      EdgeIndex* edge = &dense_first_edge_[dense_index(s, 0)];
      for (std::uint32_t x = 0; x < v; ++x) {
        lat[x] = narrow_latency(up + anchor_lat[x]);
      }
      std::fill(hop, hop + v, h);
      std::fill(edge, edge + v, eg);
      for (std::uint32_t i = 0; i < dom.num_nodes; ++i) {
        lat[first + i] = narrow_latency(tree.dist_us[i]);
        hop[first + i] = tree.first_hop[i];
        edge[first + i] = tree.first_edge[i];
      }
    }
  }

  // Dense queries read only the V*V tables.
  release(stub_domains_);
  release(gw_dist_us_);
  release(gw_parent_);
  release(gw_parent_edge_);
  release(gw_hops_);
  release(core_latency_us_);
  release(core_next_);
  release(core_next_edge_);
}

const Underlay::PathTree& Underlay::intra_tree(std::uint32_t root) const {
  thread_local IntraTree cache;
  if (cache.owner_id == instance_id_ && cache.root == root) return cache.tree;
  const StubDomain& dom = stub_of(root);
  cache.owner_id = instance_id_;
  cache.root = root;
  shortest_paths(dom.first_node, dom.first_node + dom.num_nodes, root,
                 cache.tree);
  return cache.tree;
}

// --------------------------------------------------------------------------
// Queries (mode dispatch).
// --------------------------------------------------------------------------

std::uint64_t Underlay::latency_us(std::uint32_t from, std::uint32_t to) const {
  if (mode_ == RoutingMode::kDense) {
    return dense_latency_us_[dense_index(from, to)];
  }
  if (from == to) return 0;
  if (!is_transit(from) && !is_transit(to) &&
      topology_.domain[from] == topology_.domain[to]) {
    // Same stub domain: bounded on-demand Dijkstra, rooted at the
    // destination so latency/hops/edge-walk all read one tree.
    const PathTree& tree = intra_tree(to);
    return tree.dist_us[from - stub_of(to).first_node];
  }
  return uplink_us(from) +
         core_latency_us_[core_index(anchor_of(from), anchor_of(to))] +
         uplink_us(to);
}

std::uint32_t Underlay::path_hops(HostIndex from, HostIndex to) const {
  std::uint32_t u = from.value();
  const std::uint32_t t = to.value();
  if (mode_ == RoutingMode::kDense) {
    std::uint32_t hops = 0;
    while (u != t) {
      u = dense_first_hop_[dense_index(u, t)];
      ++hops;
    }
    return hops;
  }
  if (u == t) return 0;
  if (!is_transit(u) && !is_transit(t) &&
      topology_.domain[u] == topology_.domain[t]) {
    const PathTree& tree = intra_tree(t);
    return tree.hops[u - stub_of(t).first_node];
  }
  std::uint32_t hops = 0;
  if (!is_transit(u)) hops += gw_hops_[u] + 1;  // walk to gateway + up-link
  if (!is_transit(t)) hops += gw_hops_[t] + 1;
  std::uint32_t a = anchor_of(u);
  const std::uint32_t b = anchor_of(t);
  while (a != b) {
    a = core_next_[core_index(a, b)];
    ++hops;
  }
  return hops;
}

void Underlay::for_each_path_edge(
    HostIndex from, HostIndex to,
    const std::function<void(EdgeIndex)>& fn) const {
  std::uint32_t u = from.value();
  const std::uint32_t t = to.value();
  if (mode_ == RoutingMode::kDense) {
    while (u != t) {
      fn(dense_first_edge_[dense_index(u, t)]);
      u = dense_first_hop_[dense_index(u, t)];
    }
    return;
  }
  if (u == t) return;
  if (!is_transit(u) && !is_transit(t) &&
      topology_.domain[u] == topology_.domain[t]) {
    const PathTree& tree = intra_tree(t);
    const std::uint32_t first = stub_of(t).first_node;
    while (u != t) {
      fn(tree.parent_edge[u - first]);
      u = tree.parent[u - first];
    }
    return;
  }
  // Source stub segment: walk up the gateway tree (already in path order).
  if (!is_transit(u)) {
    const StubDomain& dom = stub_of(u);
    while (u != dom.gateway) {
      fn(gw_parent_edge_[u]);
      u = gw_parent_[u];
    }
    fn(dom.gateway_edge);
  }
  // Transit core segment.
  std::uint32_t a = anchor_of(from.value());
  const std::uint32_t b = anchor_of(t);
  while (a != b) {
    fn(core_next_edge_[core_index(a, b)]);
    a = core_next_[core_index(a, b)];
  }
  // Destination stub segment: the gateway tree points toward the gateway,
  // so collect the walk and emit it reversed to keep from->to edge order.
  if (!is_transit(t)) {
    const StubDomain& dom = stub_of(t);
    fn(dom.gateway_edge);
    thread_local std::vector<EdgeIndex> down;
    down.clear();
    for (std::uint32_t w = t; w != dom.gateway; w = gw_parent_[w]) {
      down.push_back(gw_parent_edge_[w]);
    }
    for (auto it = down.rbegin(); it != down.rend(); ++it) fn(*it);
  }
}

sim::SimTime Underlay::transmission_delay(HostIndex from, HostIndex to,
                                          std::uint32_t bytes) const {
  const double bps = std::min(capacity_bps(capacity(from)),
                              capacity_bps(capacity(to)));
  const double seconds = static_cast<double>(bytes) * 8.0 / bps;
  return sim::SimTime::seconds(seconds);
}

std::vector<sim::SimTime> Underlay::distances_to(
    HostIndex host, const std::vector<HostIndex>& landmarks) const {
  std::vector<sim::SimTime> out;
  out.reserve(landmarks.size());
  for (HostIndex lm : landmarks) out.push_back(latency(host, lm));
  return out;
}

}  // namespace hp2p::net
