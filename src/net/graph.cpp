#include "net/graph.hpp"

#include <cassert>

namespace hp2p::net {

Graph::Graph(std::size_t num_nodes, std::span<const Edge> edges)
    : offsets_(num_nodes + 1, 0), half_edges_(2 * edges.size()) {
  // Inclusive prefix sums of the degrees: offsets_[u] ends u's row.
  for (const Edge& e : edges) {
    assert(e.u < num_nodes && e.v < num_nodes && e.u != e.v);
    ++offsets_[e.u];
    ++offsets_[e.v];
  }
  for (std::size_t u = 1; u < num_nodes; ++u) offsets_[u] += offsets_[u - 1];
  offsets_[num_nodes] = static_cast<std::uint32_t>(half_edges_.size());
  // Fill each row back to front from the last edge, so it lists its edges
  // in id order and offsets_[u] comes to rest at the row's start.
  for (std::size_t i = edges.size(); i-- > 0;) {
    const Edge& e = edges[i];
    const auto id = static_cast<EdgeIndex>(i);
    half_edges_[--offsets_[e.u]] = HalfEdge{e.v, e.latency_us, id};
    half_edges_[--offsets_[e.v]] = HalfEdge{e.u, e.latency_us, id};
  }
}

bool Graph::connected() const {
  const std::size_t n = num_nodes();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::vector<std::uint32_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    for (const HalfEdge& h : neighbors(u)) {
      if (!seen[h.to]) {
        seen[h.to] = true;
        ++visited;
        stack.push_back(h.to);
      }
    }
  }
  return visited == n;
}

}  // namespace hp2p::net
