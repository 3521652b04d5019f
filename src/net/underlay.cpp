#include "net/underlay.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <utility>

namespace hp2p::net {
namespace {

constexpr std::uint64_t kInf64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::uint32_t Underlay::narrow_latency(std::uint64_t us) {
  // Path latencies are bounded by diameter * max link latency (~seconds in
  // microseconds); anything near 2^32 us (~71 min) is a topology bug.
  assert(us < std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(us);
}

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

Underlay::Underlay(Topology topology, Rng& capacity_rng)
    : topology_(std::move(topology)) {
  const std::size_t v = topology_.graph.num_nodes();
  // No transit-stub shape: the whole graph is one core.
  core_size_ = find_stub_domains() ? topology_.num_transit_nodes
                                   : static_cast<std::uint32_t>(v);
  build_core();
  tables_ = std::make_unique<DomainTable[]>(stub_domains_.size());

  // Deal capacity classes exactly 1/3 : 1/3 : 1/3 (paper Section 6),
  // shuffled so classes are uncorrelated with topology position.  Routing
  // construction consumes no RNG.
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
  std::size_t total = bytes(stub_domains_) + bytes(gw_dist_us_) +
                      bytes(core_latency_us_) + bytes(core_next_) +
                      bytes(core_next_edge_) +
                      stub_domains_.size() * sizeof(DomainTable);
  for (std::size_t d = 0; d < stub_domains_.size(); ++d) {
    if (tables_[d].cells.load(std::memory_order_acquire) != nullptr) {
      const std::size_t n = stub_domains_[d].num_nodes;
      total += n * n * sizeof(DomainCell);
    }
  }
  return total;
}

// --------------------------------------------------------------------------
// Construction: one Dijkstra, one decomposition.
// --------------------------------------------------------------------------

void Underlay::shortest_paths(std::uint32_t lo, std::uint32_t hi,
                              std::uint32_t source, PathTree& tree) const {
  const std::uint32_t n = hi - lo;
  tree.dist_us.assign(n, kInf64);
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
    stub_domains_ = {};
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

  // Per-node distances to the domain gateway (O(V) state total).
  gw_dist_us_.assign(v, 0);
  PathTree tree;
  for (const StubDomain& dom : stub_domains_) {
    if (dom.num_nodes == 0) continue;
    shortest_paths(dom.first_node, dom.first_node + dom.num_nodes, dom.gateway,
                   tree);
    for (std::uint32_t i = 0; i < dom.num_nodes; ++i) {
      const std::uint32_t n = dom.first_node + i;
      gw_dist_us_[n] = narrow_latency(tree.dist_us[i]);
    }
  }
  return true;
}

void Underlay::build_core() {
  // In a transit-stub topology core paths never cross a stub domain --
  // doing so would use that domain's single gateway edge twice -- so
  // restricting Dijkstra to the transit nodes is exact.
  const std::uint32_t core = core_size_;
  const std::size_t cells = static_cast<std::size_t>(core) * core;
  core_latency_us_.resize(cells);
  core_next_.resize(cells);
  core_next_edge_.resize(cells);
  PathTree tree;
  for (std::uint32_t s = 0; s < core; ++s) {
    shortest_paths(0, core, s, tree);
    const std::size_t row = static_cast<std::size_t>(s) * core;
    for (std::uint32_t e = 0; e < core; ++e) {
      core_latency_us_[row + e] = narrow_latency(tree.dist_us[e]);
    }
    std::copy(tree.first_hop.begin(), tree.first_hop.end(),
              core_next_.begin() + static_cast<std::ptrdiff_t>(row));
    std::copy(tree.first_edge.begin(), tree.first_edge.end(),
              core_next_edge_.begin() + static_cast<std::ptrdiff_t>(row));
  }
}

const Underlay::DomainCell* Underlay::domain_cells(std::uint32_t d) const {
  std::atomic<DomainCell*>& slot = tables_[d].cells;
  DomainCell* cells = slot.load(std::memory_order_acquire);
  if (cells != nullptr) return cells;
  // One Dijkstra per member inside the domain: a row per source.
  const StubDomain& dom = stub_domains_[d];
  const std::uint32_t n = dom.num_nodes;
  const std::uint32_t first = dom.first_node;
  auto fresh = std::make_unique<DomainCell[]>(static_cast<std::size_t>(n) * n);
  PathTree tree;
  for (std::uint32_t i = 0; i < n; ++i) {
    shortest_paths(first, first + n, first + i, tree);
    DomainCell* row = &fresh[static_cast<std::size_t>(i) * n];
    for (std::uint32_t j = 0; j < n; ++j) {
      row[j] = {narrow_latency(tree.dist_us[j]), tree.first_hop[j],
                tree.first_edge[j]};
    }
  }
  // Publish; a builder that lost the race keeps the winner's equal copy.
  if (slot.compare_exchange_strong(cells, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh.release();
  }
  return cells;
}

const Underlay::DomainCell& Underlay::cell(std::uint32_t from,
                                           std::uint32_t to) const {
  const std::uint32_t d = topology_.domain[from];
  const StubDomain& dom = stub_domains_[d];
  const std::size_t row = static_cast<std::size_t>(from - dom.first_node);
  return domain_cells(d)[row * dom.num_nodes + (to - dom.first_node)];
}

void Underlay::build_tables(HostIndex from, HostIndex to, bool walk) const {
  const std::uint32_t a = from.value();
  const std::uint32_t b = to.value();
  if (walk) {
    if (cold(a)) (void)domain_cells(topology_.domain[a]);
    if (cold(b)) (void)domain_cells(topology_.domain[b]);
  } else if (a != b && !is_core(a) && !is_core(b) &&
             topology_.domain[a] == topology_.domain[b]) {
    (void)domain_cells(topology_.domain[a]);
  }
}

// --------------------------------------------------------------------------
// Queries.
// --------------------------------------------------------------------------

std::uint64_t Underlay::latency_us(std::uint32_t from, std::uint32_t to,
                                   bool build) const {
  if (from == to) return 0;
  if (!is_core(from) && !is_core(to) &&
      topology_.domain[from] == topology_.domain[to]) {
    if (!build && cold(from)) return kUnbuilt;
    return cell(from, to).latency_us;
  }
  return uplink_us(from) +
         core_latency_us_[core_index(anchor_of(from), anchor_of(to))] +
         uplink_us(to);
}

Underlay::Hop Underlay::next_hop(std::uint32_t u, std::uint32_t t) const {
  if (is_core(u)) {
    const std::uint32_t a = anchor_of(t);
    if (u != a) return {core_next_[core_index(u, a)],
                        core_next_edge_[core_index(u, a)]};
    const StubDomain& dst = stub_of(t);  // u anchors t's domain
    return {dst.gateway, dst.gateway_edge};
  }
  std::uint32_t toward = t;
  if (is_core(t) || topology_.domain[t] != topology_.domain[u]) {
    const StubDomain& dom = stub_of(u);
    if (u == dom.gateway) return {dom.anchor, dom.gateway_edge};
    toward = dom.gateway;
  }
  const DomainCell& c = cell(u, toward);
  return {c.next, c.edge};
}

std::uint32_t Underlay::path_hops(HostIndex from, HostIndex to) const {
  std::uint32_t hops = 0;
  for (std::uint32_t u = from.value(); u != to.value(); ++hops) {
    u = next_hop(u, to.value()).node;
  }
  return hops;
}

void Underlay::for_each_path_edge(
    HostIndex from, HostIndex to,
    const std::function<void(EdgeIndex)>& fn) const {
  for (std::uint32_t u = from.value(); u != to.value();) {
    const Hop hop = next_hop(u, to.value());
    fn(hop.edge);
    u = hop.node;
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
