// Standalone Gnutella-style unstructured overlay, the flexible baseline of
// the paper and the p_s = 1 degenerate case of the hybrid system.
//
// Peers connect to a handful of random existing peers (arbitrary mesh
// topology), data stays wherever it was generated, and lookups are either
// TTL-bounded floods with duplicate suppression or bounded random walks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "proto/data_store.hpp"
#include "proto/metrics.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace hp2p::gnutella {

/// Search strategy inside the unstructured mesh.
enum class SearchMode : std::uint8_t { kFlood, kRandomWalk };

struct GnutellaParams {
  /// Random neighbors a joining peer links to.
  unsigned neighbors_per_join = 3;
  SearchMode search = SearchMode::kFlood;
  /// Flood radius / walk length.
  unsigned ttl = 4;
  /// Parallel walkers when search == kRandomWalk.
  unsigned walkers = 4;
  sim::Duration lookup_timeout = sim::SimTime::seconds(15);
};

/// One unstructured overlay inside a simulation replica.
class GnutellaNetwork {
 public:
  using LookupCallback = std::function<void(proto::LookupResult)>;

  GnutellaNetwork(proto::OverlayNetwork& network, GnutellaParams params);

  /// Adds a peer and wires it to up to neighbors_per_join random existing
  /// peers.  The first peer has no neighbors.
  PeerIndex join(HostIndex host, Rng& rng);

  /// Graceful leave: neighbors drop their links to the peer.
  void leave(PeerIndex peer);

  /// Crash: the peer stops; stale neighbor links remain (messages to it are
  /// dropped by the transport), matching Gnutella's failure behaviour
  /// between keep-alive rounds.
  void crash(PeerIndex peer);

  /// Stores (key, value) at the generating peer -- in an unstructured
  /// overlay the data does not move.
  void store(PeerIndex at, const std::string& key, std::uint64_t value);

  /// Looks up a key by flooding / random walk from `from`.
  void lookup(PeerIndex from, const std::string& key, LookupCallback done);

  // --- Introspection --------------------------------------------------------
  [[nodiscard]] std::size_t num_peers() const { return peers_.size(); }
  [[nodiscard]] const std::vector<PeerIndex>& neighbors(PeerIndex peer) const {
    return peers_[peer.value()].neighbors;
  }
  [[nodiscard]] const proto::DataStore& store_of(PeerIndex peer) const {
    return peers_[peer.value()].store;
  }
  /// True when the alive-peer overlay graph is connected.
  [[nodiscard]] bool overlay_connected() const;
  /// Overlay-hop eccentricity bound: longest BFS distance from `from`.
  [[nodiscard]] unsigned bfs_radius(PeerIndex from) const;

 private:
  struct Peer {
    PeerIndex self = kNoPeer;
    std::vector<PeerIndex> neighbors;
    proto::DataStore store;
    std::unordered_set<std::uint64_t> seen_queries;
    bool alive = true;
  };

  /// Central bookkeeping for an in-flight lookup.
  struct Query {
    PeerIndex origin = kNoPeer;
    DataId target{};
    sim::SimTime started{};
    std::uint32_t contacted = 0;
    bool finished = false;
    sim::TimerId timer{};
    LookupCallback done;
    stats::TraceContext trace;  // root span (invalid when untraced)
  };

  Peer& peer(PeerIndex i) { return peers_[i.value()]; }
  /// The transport's span recorder (nullptr when untraced): lookups then
  /// record a root span with per-fan-out flood_hop/walk_hop instants.
  stats::SpanRecorder* spans() const { return net_.span_recorder(); }
  /// The query's root trace context; invalid when untraced or finished.
  [[nodiscard]] stats::TraceContext query_trace(std::uint64_t qid) const {
    if (spans() == nullptr) return {};
    const auto it = queries_.find(qid);
    return it == queries_.end() ? stats::TraceContext{} : it->second.trace;
  }

  void flood_step(PeerIndex at, PeerIndex from_neighbor, std::uint64_t qid,
                  unsigned ttl, std::uint32_t hops);
  void walk_step(PeerIndex at, std::uint64_t qid, unsigned ttl,
                 std::uint32_t hops, Rng& rng);
  /// Store check + reply at a peer the query reached; returns true on hit.
  bool try_answer(PeerIndex at, std::uint64_t qid, std::uint32_t hops);
  void finish(std::uint64_t qid, proto::LookupResult result);

  proto::OverlayNetwork& net_;
  sim::Simulator& sim_;
  GnutellaParams params_;
  std::vector<Peer> peers_;
  std::unordered_map<std::uint64_t, Query> queries_;
  std::uint64_t next_query_id_ = 1;
  Rng walk_rng_{0xabcdef};
};

}  // namespace hp2p::gnutella
