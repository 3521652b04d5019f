// Tunable parameters of the hybrid peer-to-peer system (Section 3.1).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace hp2p::hybrid {

/// Role of a peer (Section 3.1): t-peers form the structured ring; s-peers
/// hang off a t-peer in an unstructured s-network.
enum class Role : std::uint8_t { kTPeer, kSPeer };

/// Data-placement scheme at the responsible t-peer (Section 3.4).
enum class PlacementScheme : std::uint8_t {
  /// Scheme 1: the responsible t-peer stores every item routed to it.
  kTPeerStores,
  /// Scheme 2: the t-peer repeatedly hands the item to a uniformly random
  /// directly-connected neighbour (or keeps it), spreading load down the
  /// s-network.
  kRandomSpread,
};

/// Topology of each s-network.
enum class SNetworkStyle : std::uint8_t {
  /// Paper default: tree rooted at the t-peer, per-peer degree cap delta.
  kTree,
  /// All s-peers link directly to the t-peer (the "diameter two" variant of
  /// Section 3.2.2, kept for the load-imbalance ablation).
  kStar,
  /// Gnutella-ish random mesh inside the s-network (ablation: duplicate
  /// query copies vs. the tree).
  kMesh,
  /// Section 5.5: the t-peer acts as a BitTorrent tracker; no flooding.
  kBitTorrent,
};

/// How requests travel around the t-network ring (Section 4.1 analyses
/// both).
enum class TRouting : std::uint8_t {
  kRing,    // successor pointers only: ~N_t/2 hops (matches Table 2)
  kFinger,  // finger tables: ~log N_t hops
};

/// Search strategy inside an s-network ("flooding or random walks",
/// Section 1/3.1).
enum class SSearch : std::uint8_t { kFlood, kRandomWalk };

/// All knobs in one aggregate; default values follow Section 6.
struct HybridParams {
  /// p_s: fraction of peers that are s-peers (0 = pure structured ring,
  /// 1 = pure unstructured).
  double ps = 0.5;
  /// Degree constraint delta on s-network tree links.
  unsigned delta = 3;
  /// Flood radius (TTL) inside an s-network.
  unsigned ttl = 4;
  PlacementScheme placement = PlacementScheme::kRandomSpread;
  SNetworkStyle style = SNetworkStyle::kTree;
  TRouting t_routing = TRouting::kRing;

  /// Section 5.3: assign s-peers to s-networks by interest instead of by
  /// smallest size.
  bool interest_based = false;
  unsigned num_interests = 16;

  /// Section 5.2: landmark binning; s-peers in the same latency cluster go
  /// to the same s-network.
  bool topology_aware = false;
  unsigned num_landmarks = 8;

  /// Section 5.4: shortcut links between s-networks, created by cross-
  /// network stores/lookups and expiring when idle.
  bool bypass_links = false;
  sim::Duration bypass_lifetime = sim::SimTime::seconds(120);

  /// Section 5.1: prefer high-capacity hosts as t-peers.
  bool capacity_aware_roles = false;
  /// Section 5.1: accept an s-peer at a connect point whose link usage
  /// (degree / capacity class) is still low, instead of strictly degree<delta.
  bool link_usage_connect = false;

  /// Mesh style only: random neighbours per joining s-peer.
  unsigned mesh_links = 2;

  /// Heartbeat machinery (Section 3.2.2).
  sim::Duration hello_interval = sim::SimTime::millis(2000);
  sim::Duration hello_timeout = sim::SimTime::millis(5000);
  /// note_heard repair rule: a parent that false-positive-timed-out a child
  /// takes it back when the child's next HELLO arrives.  Disabling it makes
  /// the HELLO-timeout vs. late-HELLO race a real (persistent) bug -- the
  /// interleaving explorer's order-dependence canary relies on exactly
  /// that (tests only; keep true in production configs).
  bool child_readopt = true;

  /// Requester-side deadline before a lookup counts as failed.
  sim::Duration lookup_timeout = sim::SimTime::seconds(15);
  /// Optional Section 3.4 retry: one re-flood with doubled TTL after a
  /// local-segment miss.
  bool reflood_on_timeout = false;

  /// Ring-forwarding retry: when a hop has not been delivered after
  /// 2x the hop latency plus backoff, the forwarding t-peer re-resolves the
  /// next hop (against its possibly repaired pointers) and resends.  Covers
  /// hops lost in transit or addressed at t-peers that crash while the
  /// message is in flight.  Each watched hop is a watched send, so the
  /// retry is scheduled only when its hop is lost; a delivered hop costs no
  /// timer.  0 disables the retry entirely (the chaos regression tests rely
  /// on this to prove the directed crash-storm schedule catches its
  /// absence).
  unsigned ring_retry_limit = 2;
  /// First retry backoff; doubles per attempt up to a fixed 4 s cap.
  sim::Duration ring_retry_base = sim::SimTime::millis(500);

  /// Data durability: every stored item is kept on up to `replication_factor`
  /// holders inside its owning segment -- the responsible t-peer plus replica
  /// holders chosen deterministically from its s-network, falling back to the
  /// successor t-peer when the s-network is too small.  r = 1 preserves the
  /// unreplicated behavior bit-for-bit: no replica copies, no sweeps, no
  /// read-repair, and no extra messages or rng draws anywhere.
  unsigned replication_factor = 1;
  /// Anti-entropy period: each t-peer root exchanges per-segment store
  /// digests with its s-network members (piggybacked on the heartbeat loop)
  /// and missing items are re-pushed.  0 disables the sweep -- the chaos
  /// canary uses this to prove the verification stack catches a broken
  /// repair path.  Only active when replication_factor > 1.
  sim::Duration anti_entropy_period = sim::SimTime::seconds(5);
  /// Trigger an immediate repair sweep from the churn paths (crash
  /// detection, s-peer promotion, leave handover, join segment transfer)
  /// instead of waiting for the next periodic sweep.  Only active when
  /// replication_factor > 1.
  bool re_replicate_on_churn = true;

  /// In-s-network search strategy; random walks trade latency/recall for
  /// bandwidth.
  SSearch s_search = SSearch::kFlood;
  /// Parallel walkers when s_search == kRandomWalk.
  unsigned walkers = 4;

  /// Tracker-index healing for BitTorrent-style s-networks.  The tracker's
  /// holder index dies with it on a crash (only a graceful handover moves
  /// it), so by default members re-announce their stored ids whenever they
  /// learn a new root (crash promotion, orphan rejoin, subtree re-attach)
  /// and trackers prune entries for members they detect as dead.  Off, a
  /// tracker crash permanently orphans every indexed item in its segment --
  /// the swarm failover canary relies on exactly that.  No effect outside
  /// SNetworkStyle::kBitTorrent.
  bool tracker_reannounce = true;

  /// The caching scheme sketched as future work in Section 7: requesters
  /// cache items they fetched; any peer a query visits may answer from its
  /// cache, spreading the load of popular data across many peers.
  bool enable_caching = false;
  /// Cached items per peer (oldest evicted first).
  std::size_t cache_capacity = 8;
  /// Cache entry lifetime.
  sim::Duration cache_ttl = sim::SimTime::seconds(120);
};

}  // namespace hp2p::hybrid
