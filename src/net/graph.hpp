// Undirected weighted graph for the physical (underlay) topology.
//
// The overlay never sees this class directly; it talks to net::Underlay,
// which adds shortest-path routing on top.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hp2p::net {

/// Identifier of an undirected edge (index into the edge list).
using EdgeIndex = std::uint32_t;

inline constexpr EdgeIndex kNoEdge = ~EdgeIndex{0};

/// One undirected edge, as a graph is built from.
struct Edge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint32_t latency_us = 0;  // propagation delay of the physical link
};

/// One directed half of an undirected edge, stored in adjacency lists.
struct HalfEdge {
  std::uint32_t to = 0;
  std::uint32_t latency_us = 0;  // propagation delay of the physical link
  EdgeIndex edge = kNoEdge;      // undirected edge id (shared by both halves)
};

/// Immutable undirected weighted multigraph in compressed-row form: one
/// offsets array and one array of half-edges, each node's row a contiguous
/// slice.  O(1) degree/neighbor access, (V+1)·4 + 2E·12 bytes in all.
class Graph {
 public:
  /// Builds the graph of `num_nodes` nodes and `edges`.  Edge i gets id i,
  /// and each node lists its neighbours in edge-id order.  Parallel edges
  /// are allowed, but the generator avoids them.
  explicit Graph(std::size_t num_nodes = 0, std::span<const Edge> edges = {});

  [[nodiscard]] std::size_t num_nodes() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return half_edges_.size() / 2; }

  [[nodiscard]] std::span<const HalfEdge> neighbors(std::uint32_t node) const {
    return {half_edges_.data() + offsets_[node],
            offsets_[node + 1] - offsets_[node]};
  }

  /// Bytes held: the offsets and the half-edges.
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(std::uint32_t) +
           half_edges_.capacity() * sizeof(HalfEdge);
  }

  /// True when every node can reach every other node.
  [[nodiscard]] bool connected() const;

 private:
  std::vector<std::uint32_t> offsets_;  // row of node u: [offsets_[u], offsets_[u + 1])
  std::vector<HalfEdge> half_edges_;
};

}  // namespace hp2p::net
