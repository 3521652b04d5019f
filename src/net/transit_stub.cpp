#include "net/transit_stub.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace hp2p::net {
namespace {

std::uint32_t sample_latency(Rng& rng, LatencyRange range) {
  return static_cast<std::uint32_t>(rng.uniform(range.lo_us, range.hi_us));
}

/// Connects `nodes` into a random tree plus extra random edges: the
/// standard way to get a connected Waxman-ish domain without rejection
/// sampling.  Appends the domain's edges to `edges`.
void build_domain(std::vector<Edge>& edges,
                  const std::vector<std::uint32_t>& nodes,
                  LatencyRange latency, double extra_edge_prob, Rng& rng) {
  // Random spanning tree: attach node i to a uniformly random earlier node.
  std::vector<std::size_t> parent(nodes.size(), 0);  // positions in `nodes`
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    parent[i] = rng.index(i);
    edges.push_back(
        Edge{nodes[i], nodes[parent[i]], sample_latency(rng, latency)});
  }
  // Extra edges for mesh-ness.  Each pair comes up once, so the only edge
  // (i, j), j > i, can already have is j's tree edge to parent i.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (rng.chance(extra_edge_prob) && parent[j] != i) {
        edges.push_back(Edge{nodes[i], nodes[j], sample_latency(rng, latency)});
      }
    }
  }
}

}  // namespace

TransitStubParams TransitStubParams::for_total_nodes(std::uint32_t n) {
  TransitStubParams p;
  const std::uint32_t transit = p.transit_domains * p.transit_nodes_per_domain;
  const std::uint32_t stub_domains = transit * p.stub_domains_per_transit_node;
  if (n <= transit + stub_domains) {
    p.stub_nodes_per_domain = 1;
    return p;
  }
  p.stub_nodes_per_domain = (n - transit + stub_domains - 1) / stub_domains;
  if (p.stub_nodes_per_domain <= kMaxStubNodesPerDomain) return p;
  // Past ~3k nodes, widen the transit skeleton instead of the stub domains:
  // each transit domain then carries a fixed complement of
  //   transit_nodes * (1 + stub_domains_per_node * max_stub_nodes)
  // hosts, so the core stays a ~0.5% sliver of the graph at any scale.
  p.stub_nodes_per_domain = kMaxStubNodesPerDomain;
  const std::uint32_t per_transit_domain =
      p.transit_nodes_per_domain *
      (1 + p.stub_domains_per_transit_node * p.stub_nodes_per_domain);
  p.transit_domains = (n + per_transit_domain - 1) / per_transit_domain;
  return p;
}

Topology generate_transit_stub(const TransitStubParams& params, Rng& rng) {
  assert(params.transit_domains > 0 && params.transit_nodes_per_domain > 0);
  Topology topo;
  topo.num_transit_nodes =
      params.transit_domains * params.transit_nodes_per_domain;
  const std::uint32_t total = params.total_nodes();
  topo.role.assign(total, NodeRole::kStub);
  topo.domain.assign(total, 0);
  std::vector<Edge> edges;

  // Transit nodes occupy indices [0, num_transit_nodes).
  std::vector<std::vector<std::uint32_t>> transit_domains(
      params.transit_domains);
  for (std::uint32_t d = 0; d < params.transit_domains; ++d) {
    for (std::uint32_t i = 0; i < params.transit_nodes_per_domain; ++i) {
      const std::uint32_t node = d * params.transit_nodes_per_domain + i;
      topo.role[node] = NodeRole::kTransit;
      topo.domain[node] = d;
      transit_domains[d].push_back(node);
    }
    build_domain(edges, transit_domains[d], params.intra_transit,
                 params.intra_domain_extra_edge_prob, rng);
  }

  // Inter-transit-domain ring + extra edges for resilience.  These join
  // two domains, so they can only repeat one another: the ones from
  // `inter_begin` on.
  const std::size_t inter_begin = edges.size();
  const auto add_inter_transit = [&](std::uint32_t u, std::uint32_t v) {
    const bool linked =
        std::any_of(edges.begin() + static_cast<std::ptrdiff_t>(inter_begin),
                    edges.end(), [u, v](const Edge& e) {
                      return (e.u == u && e.v == v) || (e.u == v && e.v == u);
                    });
    if (!linked) {
      edges.push_back(Edge{u, v, sample_latency(rng, params.inter_transit)});
    }
  };
  for (std::uint32_t d = 0; d + 1 < params.transit_domains; ++d) {
    const std::uint32_t u = rng.pick(transit_domains[d]);
    const std::uint32_t v = rng.pick(transit_domains[d + 1]);
    edges.push_back(Edge{u, v, sample_latency(rng, params.inter_transit)});
  }
  if (params.transit_domains > 2) {
    const std::uint32_t u = rng.pick(transit_domains.back());
    const std::uint32_t v = rng.pick(transit_domains.front());
    add_inter_transit(u, v);
  }
  for (std::uint32_t e = 0; e < params.extra_interdomain_edges &&
                            params.transit_domains > 1;
       ++e) {
    const std::size_t a = rng.index(params.transit_domains);
    std::size_t b = rng.index(params.transit_domains);
    if (a == b) continue;
    const std::uint32_t u = rng.pick(transit_domains[a]);
    const std::uint32_t v = rng.pick(transit_domains[b]);
    add_inter_transit(u, v);
  }

  // Stub domains: consecutive index blocks after the transit nodes.
  std::uint32_t next_node = topo.num_transit_nodes;
  std::uint32_t stub_domain_id = params.transit_domains;
  for (std::uint32_t t = 0; t < topo.num_transit_nodes; ++t) {
    for (std::uint32_t s = 0; s < params.stub_domains_per_transit_node; ++s) {
      std::vector<std::uint32_t> members;
      members.reserve(params.stub_nodes_per_domain);
      for (std::uint32_t i = 0; i < params.stub_nodes_per_domain; ++i) {
        const std::uint32_t node = next_node++;
        topo.domain[node] = stub_domain_id;
        members.push_back(node);
      }
      ++stub_domain_id;
      build_domain(edges, members, params.intra_stub,
                   params.intra_domain_extra_edge_prob, rng);
      // Gateway link from a random stub node up to the anchoring transit
      // node.  The latency is drawn before the node, the order every
      // pinned topology was generated in; two named statements keep it
      // from resting on the compiler's argument evaluation order.
      const std::uint32_t latency = sample_latency(rng, params.stub_transit);
      const std::uint32_t gateway = rng.pick(members);
      edges.push_back(Edge{gateway, t, latency});
    }
  }

  topo.graph = Graph{total, edges};
  assert(topo.graph.connected());
  return topo;
}

}  // namespace hp2p::net
