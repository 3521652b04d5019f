// The hybrid peer-to-peer system (Section 3) -- the paper's primary
// contribution.
//
// A structured ring of t-peers (the t-network) partitions the data-id space
// into segments; each t-peer roots one unstructured s-network of s-peers.
// Stores and lookups are served by the local s-network when the key falls in
// the local segment and otherwise travel up the tree, around the ring, and
// down into the responsible s-network.
//
// Everything is message-driven over proto::OverlayNetwork: joins, the
// concurrent join/leave triangles of Fig. 2, both data-placement schemes,
// TTL-bounded flooding, HELLO/ack failure detection, server-arbitrated crash
// replacement, bypass links, and the Section 5 enhancements.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chord/finger_table.hpp"
#include "common/flat_u32_set.hpp"
#include "common/hashing.hpp"
#include "common/ids.hpp"
#include "common/ref_pool.hpp"
#include "common/rng.hpp"
#include "hybrid/params.hpp"
#include "proto/data_store.hpp"
#include "proto/metrics.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace hp2p::hybrid {

/// Told (peer, ttl) each time a flood/walk wave starts at `peer` with `ttl`
/// hops left.  The auditor uses it to bound in-flight TTLs.
class FloodObserver {
 public:
  virtual ~FloodObserver() = default;
  virtual void on_flood_wave(PeerIndex at, unsigned ttl) = 0;
};

/// The full hybrid system inside one simulation replica, including the
/// well-known bootstrap server (modeled as a host so that contacting it
/// costs real latency).
class HybridSystem {
 public:
  using JoinCallback = std::function<void(proto::JoinResult)>;
  using LookupCallback = std::function<void(proto::LookupResult)>;
  using StoreCallback = std::function<void()>;

  /// `server_host` is where the well-known server lives.
  HybridSystem(proto::OverlayNetwork& network, HybridParams params,
               HostIndex server_host, Rng& rng);

  // --- Membership ------------------------------------------------------------

  /// A new peer contacts the server, which picks its role with probability
  /// p_s (respecting capacity_aware_roles) and runs the matching join
  /// protocol.  `done` fires once the peer is fully inserted.
  PeerIndex add_peer(HostIndex host, JoinCallback done = {});

  /// Same, but the role is forced (benches use this for exact p_s ratios).
  PeerIndex add_peer_with_role(HostIndex host, Role role,
                               JoinCallback done = {});

  /// Same, with a forced interest category (Section 5.3 workloads).
  PeerIndex add_peer_with_interest(HostIndex host, Role role,
                                   std::uint32_t interest,
                                   JoinCallback done = {});

  /// Graceful departure (Section 3.2): a leaving t-peer promotes an s-peer
  /// from its own s-network (or truly leaves the ring when it has none); a
  /// leaving s-peer hands its load to a neighbour and its orphans rejoin.
  void leave(PeerIndex peer);

  /// Abrupt departure: the peer silently stops.  Its data is lost; HELLO
  /// timeouts and the server-arbitrated replacement repair the topology
  /// when failure detection is running.
  void crash(PeerIndex peer);

  /// Starts HELLO heartbeats and timeout scanning on all live peers
  /// (required for crash *recovery*; crashes without it just lose data).
  void start_failure_detection();

  // --- Data operations --------------------------------------------------------

  /// store(key, value): hashes the key and inserts the item (Section 3.4).
  void store(PeerIndex from, const std::string& key, std::uint64_t value,
             StoreCallback done = {});

  /// Direct-id variant used by workload generators that control placement.
  void store_id(PeerIndex from, DataId id, const std::string& key,
                std::uint64_t value, StoreCallback done = {});

  /// lookup(key): local s-network first, then the t-network (Section 3.4).
  /// `done` always fires: success, or failure after lookup_timeout.
  void lookup(PeerIndex from, const std::string& key, LookupCallback done);

  /// Direct-id variant.
  void lookup_id(PeerIndex from, DataId id, LookupCallback done);

  /// Result of a partial/keyword search (Section 5.3): keys matching a
  /// substring within the requester's own s-network.
  struct KeywordResult {
    std::vector<std::string> keys;
    std::uint32_t peers_contacted = 0;
  };
  using KeywordCallback = std::function<void(KeywordResult)>;

  /// Floods a substring query through the local s-network and collects all
  /// matches that arrive before `collect_window` elapses.  This is the
  /// paper's "partial search ... conducted in the corresponding s-network".
  void lookup_keyword(PeerIndex from, const std::string& substring,
                      sim::Duration collect_window, KeywordCallback done);

  /// System-wide complex lookup (Section 3.1): "the query message is first
  /// flooded within the same s-network; in the meanwhile, it is forwarded
  /// to other s-networks through the t-network."  The query circulates the
  /// whole ring, every t-peer floods its own s-network, and all matches
  /// stream back to the requester until the window closes.
  void lookup_keyword_global(PeerIndex from, const std::string& substring,
                             sim::Duration collect_window,
                             KeywordCallback done);

  // --- Introspection -----------------------------------------------------------

  [[nodiscard]] Role role_of(PeerIndex p) const { return peer(p).role; }
  [[nodiscard]] PeerId pid_of(PeerIndex p) const { return peer(p).pid; }
  [[nodiscard]] bool is_joined(PeerIndex p) const { return peer(p).joined; }
  [[nodiscard]] bool is_alive(PeerIndex p) const { return net_.alive(p); }
  [[nodiscard]] std::uint32_t interest_of(PeerIndex p) const {
    return peer(p).interest;
  }
  [[nodiscard]] PeerIndex tpeer_of(PeerIndex p) const { return peer(p).tpeer; }
  [[nodiscard]] PeerIndex parent_of(PeerIndex p) const { return peer(p).cp; }
  /// Ring links and fingers.  Only t-peers hold a ring position; any other
  /// peer reads kNoPeer links and an empty finger table.
  [[nodiscard]] PeerIndex successor_of(PeerIndex p) const {
    return ring_view(peer(p)).successor.peer;
  }
  [[nodiscard]] PeerId successor_id_of(PeerIndex p) const {
    return ring_view(peer(p)).successor.id;
  }
  [[nodiscard]] PeerIndex predecessor_of(PeerIndex p) const {
    return ring_view(peer(p)).predecessor.peer;
  }
  [[nodiscard]] PeerId predecessor_id_of(PeerIndex p) const {
    return ring_view(peer(p)).predecessor.id;
  }
  [[nodiscard]] const chord::FingerTable& fingers_of(PeerIndex p) const {
    return ring_view(peer(p)).fingers;
  }
  /// Mid-join / mid-leave flags (Section 3.3 mutexes).  The auditor uses
  /// them to tell transient protocol states from genuine corruption.
  [[nodiscard]] bool is_joining(PeerIndex p) const {
    return ring_view(peer(p)).joining_mutex;
  }
  [[nodiscard]] bool is_leaving(PeerIndex p) const {
    return peer(p).leaving_mutex;
  }
  [[nodiscard]] bool is_server_peer(PeerIndex p) const {
    return peer(p).is_server;
  }
  /// Server-side ring registry (pid -> t-peer), the ground truth for
  /// segment-responsibility checks.
  [[nodiscard]] const std::map<std::uint64_t, PeerIndex>& registry() const {
    return registry_;
  }
  [[nodiscard]] const std::vector<PeerIndex>& children_of(PeerIndex p) const {
    return peer(p).children;
  }
  [[nodiscard]] const proto::DataStore& store_of(PeerIndex p) const {
    return peer(p).store;
  }
  [[nodiscard]] std::size_t num_peers() const { return peers_.size(); }
  [[nodiscard]] std::size_t num_tpeers() const;
  [[nodiscard]] std::size_t num_speers() const;

  /// Segment (pred_pid, pid] served by the s-network of t-peer `t`.
  [[nodiscard]] std::pair<PeerId, PeerId> segment_of(PeerIndex t) const;

  /// Live members of the s-network rooted at t-peer `t` (incl. the t-peer).
  [[nodiscard]] std::vector<PeerIndex> snetwork_members(PeerIndex t) const;

  /// Ring invariant: successor/predecessor pointers form one cycle over all
  /// joined t-peers, ids strictly increasing around the cycle.
  [[nodiscard]] bool verify_ring() const;

  /// Tree invariants: every joined s-peer's cp chain reaches its t-peer and
  /// parent/child pointers agree.  (The degree cap is enforced at admission
  /// but may be legitimately exceeded after a promotion absorbs the old
  /// root's children, so it is asserted by tests on churn-free builds
  /// rather than here.)
  [[nodiscard]] bool verify_trees() const;

  /// Total stored items across live peers.
  [[nodiscard]] std::size_t total_items() const;

  /// Items-per-peer across live joined peers (Fig. 4 raw data).
  [[nodiscard]] std::vector<std::size_t> items_per_peer() const;

  /// Live joined peers (for workload generators to draw from), in peer-index
  /// order.  Served from a cache invalidated on membership/liveness changes:
  /// workload generators call this per operation, and the O(N) rebuild per
  /// op dominated whole runs past ~20k peers.  The reference is valid until
  /// the next membership change.
  [[nodiscard]] const std::vector<PeerIndex>& live_peers() const;

  /// Number of bypass links currently installed system-wide.
  [[nodiscard]] std::size_t num_bypass_links() const;

  /// Lifetime counters for the Section 5.4 mechanism.
  [[nodiscard]] std::uint64_t bypass_installs() const {
    return bypass_installs_;
  }
  [[nodiscard]] std::uint64_t bypass_uses() const { return bypass_uses_; }

  /// How many lookups each peer has answered (from store or cache); the
  /// load metric of the Section 7 caching scheme.
  [[nodiscard]] std::uint64_t answers_served(PeerIndex p) const {
    return peer(p).answers_served;
  }
  /// Largest per-peer answer count (the "overwhelmed host" indicator).
  [[nodiscard]] std::uint64_t max_answers_served() const;
  /// Lookups answered from a cache rather than the authoritative store.
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

  /// T-peer responsible for a data id (server-registry view).
  [[nodiscard]] PeerIndex owner_tpeer(DataId id) const {
    return registry_owner(id.value());
  }

  /// Holders the tracker at `t` has indexed for `id` (BitTorrent-style
  /// s-networks; empty otherwise).  The chaos oracle uses this to decide
  /// whether a tracker-mode lookup MUST succeed.
  [[nodiscard]] std::vector<PeerIndex> tracker_holders(PeerIndex t,
                                                       DataId id) const;

  // --- Data durability (segment-local replication) ------------------------------

  /// Deterministic replica set for `id`: the owning t-peer first, then up to
  /// replication_factor - 1 live members of its s-network ranked by a
  /// per-id hash, then the successor t-peer as a fallback when the s-network
  /// is too small.  Depends only on the current overlay state, never on rng.
  [[nodiscard]] std::vector<PeerIndex> replica_set(DataId id) const;

  /// Replica copies pushed when a primary item lands in its home segment.
  [[nodiscard]] std::uint64_t replica_pushes() const {
    return replica_pushes_;
  }
  /// Copies re-pushed by anti-entropy sweeps / churn-triggered repair.
  [[nodiscard]] std::uint64_t re_replication_pushes() const {
    return re_replication_pushes_;
  }
  /// Sweep-pushed copies that actually filled a hole at the receiver.
  [[nodiscard]] std::uint64_t anti_entropy_repairs() const {
    return anti_entropy_repairs_;
  }
  /// Primary copies restored at the owner after a lookup was answered from
  /// a non-primary replica.
  [[nodiscard]] std::uint64_t read_repairs() const { return read_repairs_; }

  /// Bulk-refreshes every t-peer's finger table from the server registry.
  /// Stand-in for Chord's background fix_fingers: the hybrid paper keeps
  /// finger maintenance out of scope (substitution updates aside), so
  /// benches call this once after the build phase when t_routing==kFinger.
  void refresh_all_fingers();

  [[nodiscard]] const HybridParams& params() const { return params_; }

  /// Lookups currently in flight (issued, neither answered nor timed out).
  [[nodiscard]] std::size_t pending_lookups() const { return queries_.size(); }

  /// Routed requests (climb + ring trips of stores, re-homes and lookups)
  /// still referenced by an in-flight message or pending retry.  Zero once
  /// the event queue has drained; a nonzero count then is a leaked record.
  [[nodiscard]] std::size_t routes_in_flight() const { return routes_.live(); }

  /// Handshake records (joins, s-peer leave handoffs, anti-entropy digests)
  /// still referenced by an in-flight message, timer or join queue.  Zero
  /// once the event queue has drained, like routes_in_flight().
  [[nodiscard]] std::size_t joins_in_flight() const { return joins_.live(); }
  [[nodiscard]] std::size_t handoffs_in_flight() const {
    return handoffs_.live();
  }
  [[nodiscard]] std::size_t sweeps_in_flight() const { return sweeps_.live(); }

  /// Registers `o` (not owned; must outlive its registration).
  void add_flood_observer(FloodObserver* o) { flood_observers_.push_back(o); }
  void remove_flood_observer(FloodObserver* o) {
    std::erase(flood_observers_, o);
  }

 private:
  /// Test-only white-box corruption hooks (src/audit/fault_inject.hpp).
  friend struct FaultInjector;

  // --- Internal state ---------------------------------------------------------

  struct BypassLink {
    PeerIndex to = kNoPeer;
    PeerId segment_lo{};  // predecessor pid of the remote t-peer
    PeerId segment_hi{};  // pid of the remote t-peer
    sim::SimTime expires{};
  };

  // Handshake records (DESIGN.md §5.25): a handshake's closures capture
  // {this, positions, handle}, as a routed request's do (Route).

  /// One peer's join: the t-join ring walk and triangle, or the s-join
  /// descent.  Only one message of a join is in flight at a time.
  struct Join {
    PeerIndex joiner = kNoPeer;
    std::uint32_t hops = 0;
    sim::SimTime started{};
    JoinCallback done;
    void clear() { done = nullptr; }
  };
  using JoinRef = RefPool<Join>::Ref;

  /// A leaving s-peer's load and the neighbours it may hand it to, in
  /// preference order.  Each attempt owns its heir's ack flag, so a late
  /// ack from an earlier heir never silences a later attempt's watchdog.
  struct Handoff {
    struct Heir {
      PeerIndex peer = kNoPeer;
      bool acked = false;
    };
    PeerIndex leaver = kNoPeer;
    std::vector<Heir> heirs;
    std::vector<proto::DataItem> items;
    void clear() { heirs.clear(); items.clear(); }
  };
  using HandoffRef = RefPool<Handoff>::Ref;

  /// The in-segment id digest (ascending) one anti-entropy sweep sends to
  /// every member.
  using DigestRef = RefPool<std::vector<DataId>>::Ref;

  /// One ring link: a neighbour t-peer and the ring id it is known by.
  struct RingLink {
    PeerIndex peer = kNoPeer;
    PeerId id{};
  };

  /// A t-peer's ring position (Section 3.1), the state only t-peers hold.
  /// It is allocated where a peer takes a ring position (start_tpeer_join,
  /// crash promotion) and moves whole to the heir on a graceful promotion.
  /// S-peers and departed t-peers have none; ring_view() reads them as a
  /// default RingState, and writes aimed at them are dropped.
  struct RingState {
    RingLink successor;
    RingLink predecessor;
    chord::FingerTable fingers;
    // Section 3.3 join serialization: the mutex and the queue behind it.
    bool joining_mutex = false;
    std::vector<JoinRef> pending_joins;  // pushed, then drained whole
    // BitTorrent style: tracker index at the t-peer (d_id -> holders, in
    // announce order).  Multiple holders per id is what makes multi-peer
    // swarm downloads work: the tracker hands the query to every announced
    // holder and the first live one answers.  Ordered map: the promotion
    // and pruning paths iterate it, and iteration feeds message emission.
    std::map<DataId, std::vector<PeerIndex>> tracker_index;
    /// Last anti-entropy sweep started by this t-peer (replication only).
    sim::SimTime last_sweep{};
  };

  /// When a peer last heard from a neighbour and last sent it a HELLO/ack.
  struct Liveness {
    static constexpr sim::SimTime kUnset = sim::SimTime::never();
    sim::SimTime heard = kUnset;
    sim::SimTime sent = kUnset;
  };

  /// State only the optional features write: kMesh-style extra links,
  /// Section 5.4 bypass links and the Section 7 cache.  A peer gets one on
  /// its first such write (extras_of); until then Peer::extras is null,
  /// which every reader takes as empty.
  struct PeerExtras {
    std::vector<PeerIndex> mesh_links;  // kMesh style extra links
    std::vector<BypassLink> bypass;
    // Section 7 caching scheme: recently fetched items.  The map gives O(1)
    // hits on the lookup fast path; cache_fifo is a ring buffer of the cached
    // ids in insertion order, its oldest at cache_oldest once it is full
    // (each cached id appears in it exactly once).
    struct CacheEntry {
      proto::DataItem item;
      sim::SimTime expires{};
    };
    std::unordered_map<DataId, CacheEntry> cache;
    std::vector<DataId> cache_fifo;
    std::size_t cache_oldest = 0;
  };

  struct Peer {
    PeerIndex self = kNoPeer;
    HostIndex host = kNoHost;
    Role role = Role::kSPeer;
    PeerId pid{};
    std::uint32_t interest = 0;
    bool joined = false;
    bool leaving_mutex = false;  // Section 3.3, for both roles
    bool is_server = false;

    std::unique_ptr<RingState> ring;  // t-peers only

    // S-network membership (t-peers are tree roots; cp == kNoPeer).
    PeerIndex tpeer = kNoPeer;  // root of my s-network (self for t-peers)
    PeerIndex cp = kNoPeer;     // connect point (tree parent)
    std::vector<PeerIndex> children;
    std::unique_ptr<PeerExtras> extras;  // mesh, bypass and cache features

    proto::DataStore store;
    std::uint64_t answers_served = 0;

    // By neighbour peer index; written only while failure detection runs.
    // Inline, not in extras: every heartbeat reads it.
    std::unordered_map<std::uint32_t, Liveness> liveness;
    bool heartbeat_running = false;
    /// Last time this orphaned s-peer asked to rejoin a tree; throttles the
    /// heartbeat-driven re-attach retry to one request per hello_timeout.
    sim::SimTime last_rejoin_attempt{};
  };
  // peers_ grows one join at a time; a throwing move would make every
  // reallocation deep-copy each peer's maps and vectors instead.
  static_assert(std::is_nothrow_move_constructible_v<Peer>);
  // Every peer pays for Peer; only t-peers pay for a RingState, and only
  // peers that use an optional feature for PeerExtras.
  static_assert(sizeof(Peer) <= 184);

  /// `p`'s feature state, allocated on first use.  For writers; readers
  /// test p.extras for null instead, so a read never allocates.
  static PeerExtras& extras_of(Peer& p) {
    if (p.extras == nullptr) p.extras = std::make_unique<PeerExtras>();
    return *p.extras;
  }

  struct Query {
    PeerIndex origin = kNoPeer;
    DataId target{};
    sim::SimTime started{};
    std::uint32_t contacted = 0;
    bool finished = false;
    bool reflooded = false;
    bool rerouted = false;
    sim::TimerId timer{};
    LookupCallback done;
    FlatU32Set visited;  // flood dedup + contacted, by peer index
    stats::TraceContext trace;  // root span of the lookup (when traced)
    stats::TraceContext stage;  // currently open stage span (climb/ring/...)
  };

  Peer& peer(PeerIndex i) { return peers_[i.value()]; }
  [[nodiscard]] const Peer& peer(PeerIndex i) const {
    return peers_[i.value()];
  }

  /// `p`'s ring position, for handlers that already know `p` holds one (a
  /// joined t-peer, or one mid-join).  Asserted.
  static RingState& ring(Peer& p) {
    assert(p.ring != nullptr && "peer holds no ring position");
    return *p.ring;
  }
  /// Read view that tolerates absence: a peer without a ring position reads
  /// as kNoRing (kNoPeer links, empty fingers, queue and index).
  static const RingState& ring_view(const Peer& p) {
    return p.ring != nullptr ? *p.ring : kNoRing;
  }
  static const RingState kNoRing;
  /// The link to `n` under its current ring id.
  [[nodiscard]] RingLink link_to(PeerIndex n) const { return {n, peer(n).pid}; }
  /// Points `p`'s `side` link (&RingState::successor or
  /// &RingState::predecessor) at `to`.  Dropped when `p` holds no ring
  /// position: the server registers a crash heir before its promotion
  /// lands, so ring repair can address a peer that is still an s-peer.
  static void set_link(Peer& p, RingLink RingState::*side, RingLink to) {
    if (p.ring != nullptr) (*p.ring).*side = to;
  }

  // --- Tree walks ----------------------------------------------------------------

  /// Visit marks for walks over child lists, which can hold transient
  /// cycles mid-churn (a rejoin crossing a note_heard child re-add).  A
  /// walk stamps each peer it reaches with its own epoch, so starting one
  /// costs O(1) instead of a zero-filled O(N) scratch vector.  Per
  /// instance, never static: parallel_map runs systems concurrently.
  struct VisitMarks {
    std::vector<std::uint32_t> stamp;  // by peer index: epoch of last visit
    std::uint32_t epoch = 0;
    bool open = false;                 // a walk is in progress
    std::vector<PeerIndex> frontier;   // collect_snetwork's scratch stack
  };
  /// One walk over visit_marks_, open while the object lives.  Walks never
  /// nest (asserted).
  class Walk {
   public:
    Walk(VisitMarks& marks, std::size_t num_peers);
    ~Walk() { marks_.open = false; }
    Walk(const Walk&) = delete;
    Walk& operator=(const Walk&) = delete;
    /// True the first time `p` is reached in this walk, which marks it.
    bool first_visit(PeerIndex p) {
      std::uint32_t& s = marks_.stamp[p.value()];
      if (s == marks_.epoch) return false;
      s = marks_.epoch;
      return true;
    }

   private:
    VisitMarks& marks_;
  };
  [[nodiscard]] Walk begin_walk() const {
    return Walk{visit_marks_, peers_.size()};
  }
  /// Calls f(n) for each of `p`'s links (never bypass links) in the order
  /// floods, walks and beats rely on: cp, children, mesh links, then, if
  /// `with_ring` and `p` is a joined t-peer, successor and predecessor.
  template <class F>
  void for_each_link(const Peer& p, bool with_ring, F&& f) const {
    if (p.cp != kNoPeer) f(p.cp);
    for (const PeerIndex c : p.children) f(c);
    if (p.extras != nullptr) {
      for (const PeerIndex m : p.extras->mesh_links) f(m);
    }
    if (!with_ring || p.role != Role::kTPeer || !p.joined) return;
    const PeerIndex suc = ring_view(p).successor.peer;
    const PeerIndex pre = ring_view(p).predecessor.peer;
    if (suc != kNoPeer && suc != p.self) f(suc);
    if (pre != kNoPeer && pre != p.self && pre != suc) f(pre);
  }
  /// Appends snetwork_members(t) to `out`.
  void collect_snetwork(PeerIndex t, std::vector<PeerIndex>& out) const;
  /// Every peer below `top` in its child lists, dead ones included, level
  /// by level in child-list order, each once (`top` itself never).
  [[nodiscard]] std::vector<PeerIndex> subtree_below(PeerIndex top) const;

  // --- Server logic (runs at server_) -----------------------------------------

  [[nodiscard]] Role server_pick_role(HostIndex host);
  [[nodiscard]] PeerId server_generate_pid();
  /// Picks the s-network for a joining s-peer: interest match, landmark
  /// cluster, or smallest size (Section 3.2.2 / 5.2 / 5.3).
  [[nodiscard]] PeerIndex server_pick_snetwork(PeerIndex joiner);
  [[nodiscard]] PeerIndex server_random_tpeer();
  void server_handle_compete(PeerIndex orphan, PeerIndex dead_tpeer);
  /// Ring repair when a t-peer with no surviving s-network crashes: the
  /// server drops it from the registry and reconnects its ring neighbors.
  void server_handle_ring_repair(PeerIndex dead);
  /// A t-peer reported `dead` after its slot was already taken over: tell
  /// the reporter who holds the slot now, so a raced/suppressed adoption
  /// message cannot leave its ring pointers dangling forever.
  void server_refresh_ring_pointers(PeerIndex reporter, PeerIndex dead);
  /// Registry maintenance.  insert/erase also keep snetwork_by_size_ in
  /// step, so every s-network size change must flow through
  /// set_snetwork_size()/erase_snetwork_size() rather than writing
  /// snetwork_size_ directly.
  void registry_insert(PeerId pid, PeerIndex t);
  void registry_erase(PeerId pid);
  [[nodiscard]] PeerIndex registry_owner(std::uint64_t id) const;
  /// Server's view of t's s-network size (missing entry reads as 0, the
  /// same convention the smallest-first scan always used).
  [[nodiscard]] std::size_t snetwork_size_of(PeerIndex t) const;
  void set_snetwork_size(PeerIndex t, std::size_t size);
  void erase_snetwork_size(PeerIndex t);

  // --- Join protocols ----------------------------------------------------------

  /// A fresh join record for `joiner`, started now, with no completion
  /// callback.
  [[nodiscard]] JoinRef new_join(PeerIndex joiner, std::uint32_t hops = 0);
  /// The one admission path behind add_peer*: registers the endpoint as
  /// j's joiner and sends the join request to the server.  A forced role
  /// shows from creation; otherwise the peer reads kSPeer until the server
  /// picks.
  PeerIndex admit_peer(HostIndex host, std::optional<Role> forced,
                       std::uint32_t interest, JoinRef j);
  void start_tpeer_join(const JoinRef& j);
  void route_tjoin(PeerIndex at, const JoinRef& j);
  void run_join_triangle(PeerIndex pre, const JoinRef& j);
  void process_pending_joins(PeerIndex pre);
  void start_speer_join(PeerIndex target_tpeer, const JoinRef& j);
  void descend_sjoin(PeerIndex at, const JoinRef& j);
  [[nodiscard]] bool accepts_child(const Peer& p) const;
  [[nodiscard]] unsigned tree_degree(const Peer& p) const;

  // --- Leave / crash -----------------------------------------------------------

  void tpeer_leave(PeerIndex leaving);
  void speer_leave(PeerIndex leaving);
  /// Hands a leaving s-peer's items to the first live candidate, retrying
  /// down the list when the transfer is never acknowledged (the chosen heir
  /// crashed or left with the kData message in flight).  The leaver only
  /// goes dark once an heir acked receipt -- or every candidate is gone.
  /// `next` indexes h.heirs.
  void speer_leave_handoff(const HandoffRef& h, std::size_t next);
  /// Promotes s-peer `heir` into the ring position of `old_t` (graceful
  /// role transfer or crash replacement).  `with_data` carries old_t's
  /// store across (graceful only).
  void promote_speer(PeerIndex heir, PeerIndex old_t, bool with_data);
  void ring_leave(PeerIndex leaving);
  void ring_leave_wait_pre(PeerIndex leaving);
  void ring_leave_step2(RingLink pre, RingLink suc, PeerIndex leaving);
  void broadcast_substitution(PeerIndex old_t, PeerIndex new_t);
  void detach_from_tree(PeerIndex p, bool notify_children);
  void rejoin_subtree(PeerIndex child);
  /// The only writers of child lists.  Each bumps tree_epoch_, so the
  /// candidates_of() memo never outlives the tree it walked.
  void add_child(Peer& parent, PeerIndex child) {
    parent.children.push_back(child);
    ++tree_epoch_;
  }
  /// Removes `child` from `parent`'s list; true when it was there.
  bool drop_child(Peer& parent, PeerIndex child) {
    ++tree_epoch_;
    return std::erase(parent.children, child) != 0;
  }
  void clear_children(Peer& parent) {
    parent.children.clear();
    ++tree_epoch_;
  }

  // --- Failure detection -------------------------------------------------------

  void heartbeat_tick(PeerIndex p);
  void heartbeat_step(PeerIndex p);
  void on_neighbor_dead(PeerIndex at, PeerIndex dead);
  void note_heard(PeerIndex at, PeerIndex from);
  void maybe_ack(PeerIndex at, PeerIndex to);

  // --- Data path ---------------------------------------------------------------

  [[nodiscard]] bool in_local_segment(const Peer& p, DataId id) const;

  // --- Routed requests (cp-chain climb + t-network forwarding) -----------------

  /// What a request routed up the cp chain and around the t-network does at
  /// its three decision points: reaching the local t-peer (route_at_root),
  /// the owner of its key (route_at_owner), or a dead upward path
  /// (route_dead_end).  One kind per originating call site.
  enum class RouteKind : std::uint8_t {
    kStore,          // store(): place `item` at the owner, then run `done`
    kRehome,         // route_and_place(): place `item` at the owner; keep it
                     // at `origin` when the upward path is gone
    kLookup,         // remote lookup `qid`: answer or flood at the owner
    kTrackerLookup,  // tracker-mode local lookup `qid`: ask the root tracker
    kKeywordRing,    // global keyword query `qid`: start the ring walk
  };

  /// One routed request: the state all of its hops share.  Records come
  /// from routes_ and are reference-counted by the message and retry
  /// closures that carry them, so a hop captures {handle, position,
  /// counters} and allocates nothing once the pool is warm.  A ring hop's
  /// retry waits in the transport's watch record and is scheduled only if
  /// the hop is lost (OverlayNetwork::send_watched), so a late original and
  /// its resend each own their fate without any per-hop flag here.
  struct Route {
    RouteKind kind = RouteKind::kStore;
    std::uint64_t target = 0;  // ring key: the data id being routed to
    PeerIndex origin = kNoPeer;
    std::uint64_t qid = 0;     // lookup kinds
    stats::TraceContext ctx;   // causal context of the current phase
    proto::DataItem item;      // kStore / kRehome payload
    StoreCallback done;        // kStore completion

    /// Item-carrying requests travel as data messages, the rest as queries.
    [[nodiscard]] bool carries_item() const {
      return kind == RouteKind::kStore || kind == RouteKind::kRehome;
    }
    [[nodiscard]] proto::TrafficClass cls() const {
      return carries_item() ? proto::TrafficClass::kData
                            : proto::TrafficClass::kQuery;
    }
    [[nodiscard]] std::uint32_t bytes() const {
      return carries_item() ? proto::kDataBytes : proto::kQueryBytes;
    }

    /// Back to the pooled state: drops the payload, keeps the capacity.
    void clear() {
      origin = kNoPeer;
      qid = 0;
      item = {};
      done = nullptr;
    }
  };
  using RouteRef = RefPool<Route>::Ref;

  /// A fresh record for a request of `kind` towards ring key `target`.
  [[nodiscard]] RouteRef new_route(RouteKind kind, std::uint64_t target,
                                   stats::TraceContext ctx);
  /// Forwards up the cp chain to the s-network's t-peer, then runs
  /// route_at_root there.  When the upward path is gone (detached orphan,
  /// mid-churn) route_dead_end runs instead -- lookups use it to fail fast
  /// rather than letting the requester wait out lookup_timeout.
  void climb(const RouteRef& r, PeerIndex at, std::uint32_t hops);
  void route_at_root(const RouteRef& r, PeerIndex root, std::uint32_t hops);
  void route_dead_end(Route& r);
  /// Forwards around the t-network until the owner of r.target is reached,
  /// then runs route_at_owner.  Caching lookups are offered to every
  /// intermediate t-peer first (route_intercept); a hit there consumes the
  /// request (cache hits at surrogate peers, Section 7).
  void route_ring(const RouteRef& r, PeerIndex at, std::uint32_t hops,
                  std::uint32_t contacted);
  /// One ring hop with retry: sends to the next hop and, while
  /// params_.ring_retry_limit allows, re-resolves and resends after
  /// 2x hop latency + capped exponential backoff if the hop was never
  /// delivered (receiver crashed with the message in flight).
  void ring_forward(const RouteRef& r, PeerIndex at, std::uint32_t hops,
                    std::uint32_t contacted, unsigned attempt);
  [[nodiscard]] bool route_intercept(const Route& r, PeerIndex at,
                                     std::uint32_t hops);
  void route_at_owner(Route& r, PeerIndex owner, std::uint32_t hops,
                      std::uint32_t contacted);
  void place_item(PeerIndex at, proto::DataItem item, StoreCallback done);
  void spread_item(PeerIndex at, proto::DataItem item, StoreCallback done);
  /// Routes `item` from `from` to the responsible t-peer's s-network
  /// (cp-chain climb + ring forwarding + place_item).  Used to re-home
  /// items that ended up outside their segment after churn.
  void route_and_place(PeerIndex from, proto::DataItem item);
  /// Inserts locally when `at` is (or can't determine) the responsible
  /// s-network; otherwise forwards via route_and_place.
  void insert_or_rehome(PeerIndex at, proto::DataItem item);
  /// A load transfer: one data message from `from` to `to`, whose items
  /// land through insert_or_rehome.  Sends nothing when `items` is empty.
  void send_items(PeerIndex from, PeerIndex to,
                  std::vector<proto::DataItem> items);
  /// Re-homes every stored item at `at` that falls outside its s-network's
  /// segment (called after `at` lands in a possibly different s-network).
  void rehome_foreign_items(PeerIndex at);

  // --- Replication (segment-local durability) ----------------------------------

  /// True when the replication layer is on at all: r > 1 and a style whose
  /// placement the replica set can reason about (tracker mode indexes every
  /// copy explicitly, so it is excluded).
  [[nodiscard]] bool replication_active() const {
    return params_.replication_factor > 1 &&
           params_.style != SNetworkStyle::kBitTorrent;
  }
  /// Pushes replica-tagged copies of a freshly placed primary item to the
  /// other members of its replica set.  No-op when replication is off or
  /// `item` is itself a replica copy (no fan-out cascades).
  void replicate_item(PeerIndex at, const proto::DataItem& item);
  /// Idempotent local insert on the replication paths: merge (dedup by
  /// id + key) when replication is active, plain insert otherwise -- the
  /// r = 1 byte-identity guarantee keeps insert() on the legacy path.
  void store_or_merge(Peer& p, proto::DataItem item);
  /// One anti-entropy round started by t-peer `root`: the root sends its
  /// in-segment id digest to every live member (plus the successor fallback
  /// when the s-network is too small); members push items the root lacks and
  /// request in-segment items they should hold but don't.
  void replication_sweep(PeerIndex root);
  void sweep_at_member(PeerIndex member, PeerIndex root,
                       const DigestRef& digest);
  /// Schedules a near-term sweep at `at`'s root after a churn event
  /// (gated on re_replicate_on_churn).
  void trigger_re_replication(PeerIndex at);
  /// True when `at` is the designated successor-fallback holder for `id`
  /// (the owner's successor t-peer, standing in for a too-small s-network).
  [[nodiscard]] bool is_fallback_holder(PeerIndex at, DataId id) const;
  /// Owner's successor t-peer when it can stand in for a too-small
  /// s-network (live, joined, not the owner itself), else kNoPeer.
  [[nodiscard]] PeerIndex fallback_successor(PeerIndex owner) const;
  /// Sets `out` to the peers replica_set() ranks for ids owned by `owner`:
  /// the live joined members of its s-network other than itself.  A fresh
  /// O(s-network) walk; the replication paths read candidates_of().
  void replica_candidates(PeerIndex owner, std::vector<PeerIndex>& out) const;
  /// replica_candidates(owner), walked once per owner and membership epoch:
  /// the list is kept until tree_epoch_ or the transport's liveness epoch
  /// moves.  The reference stays valid until the next call for `owner`.
  [[nodiscard]] const std::vector<PeerIndex>& candidates_of(
      PeerIndex owner) const;
  /// Rank of candidate `m` for item `id`, lowest first: a per-id hash, so
  /// each item picks its own holders (spreading replica load) while the
  /// choice stays a pure function of the overlay state.  mix64 is a
  /// bijection, so distinct candidates never tie on the hash; the peer index
  /// only completes the key.
  [[nodiscard]] static std::pair<std::uint64_t, PeerIndex> replica_key(
      DataId id, PeerIndex m) {
    return {mix64(id.value() ^ mix64(m.value())), m};
  }
  /// The seats of `id` among candidates_of(owner): the min(r - 1,
  /// candidates) candidates with the lowest replica_key(id, .), lowest
  /// first.  Ranked once per (owner, id) and memo epoch, then read from the
  /// memo; the span stays valid until the next call for `owner`.  Needs
  /// r >= 2.
  [[nodiscard]] std::span<const PeerIndex> seats_of(PeerIndex owner,
                                                    DataId id) const;
  /// Whether `member` is in replica_set(id), where `owner` is id's owner:
  /// it is the owner, holds one of seats_of(owner, id), or is the live
  /// successor fallback of an s-network with fewer than r - 1 candidates.
  [[nodiscard]] bool in_replica_set(PeerIndex member, DataId id,
                                    PeerIndex owner) const;
  /// Restores the primary copy at the owner after `item` answered a lookup
  /// from a non-primary replica at `at`.
  void maybe_read_repair(PeerIndex at, const proto::DataItem& item);

  /// Dispatches to flood() or random walks per params_.s_search.
  void search_snetwork(PeerIndex at, PeerIndex from, std::uint64_t qid,
                       unsigned ttl, std::uint32_t hops);
  void flood(PeerIndex at, PeerIndex from, std::uint64_t qid, unsigned ttl,
             std::uint32_t hops);
  void walk(PeerIndex at, std::uint64_t qid, unsigned ttl,
            std::uint32_t hops);
  bool try_answer(PeerIndex at, std::uint64_t qid, std::uint32_t hops);
  /// Store first, then cache (when enabled); nullptr on miss.
  [[nodiscard]] const proto::DataItem* answer_source(Peer& p, DataId id,
                                                     bool& from_cache);
  void cache_put(PeerIndex at, const proto::DataItem& item);
  /// The transport's span recorder (nullptr when untraced).  Stores and
  /// lookups record a root span, one child per protocol stage (climb, ring,
  /// flood, reply) and an instant per hop.
  stats::SpanRecorder* spans() const { return net_.span_recorder(); }
  /// Reports a flood/walk wave starting at `at` to every flood observer.
  void notify_flood_wave(PeerIndex at, unsigned ttl) {
    for (FloodObserver* o : flood_observers_) o->on_flood_wave(at, ttl);
  }
  /// Ends the query's current stage span (if any) and opens a new one named
  /// `name` under its root.  No-op when untraced.
  void trace_stage(std::uint64_t qid, const char* name, const char* category,
                   PeerIndex at);
  /// Context new work on this query should record under: the open stage
  /// span when one exists, else the root.  Invalid when untraced.
  [[nodiscard]] stats::TraceContext query_trace(std::uint64_t qid) const;

  void finish_query(std::uint64_t qid, proto::LookupResult result);
  /// Immediate failure (no timeout wait); sets LookupResult::fast_fail.
  void fail_query_fast(std::uint64_t qid);
  /// Arms the Section 3.4 re-flood for query `qid`: at lookup_timeout/2,
  /// if still unanswered, re-flood from `at` with doubled TTL.  Shared by
  /// the local-segment and remote-segment lookup paths.
  void arm_reflood(std::uint64_t qid, PeerIndex at);
  void arm_reroute(std::uint64_t qid, PeerIndex origin, DataId id);
  void start_remote_lookup(PeerIndex origin, std::uint64_t qid, DataId id);
  void bt_lookup(PeerIndex origin, std::uint64_t qid, PeerIndex tracker,
                 std::uint32_t hops);

  // --- Tracker index maintenance (BitTorrent style) -----------------------------

  /// Records `holder` for `id` in tracker `t`'s index (idempotent).  Both
  /// index helpers are no-ops on a peer without a ring position.
  static void tracker_index_add(Peer& t, DataId id, PeerIndex holder);
  /// Sends one announce for `id` from `member` up to its tracker root.
  /// No-op outside kBitTorrent or when tracker_reannounce is off.
  void tracker_announce(PeerIndex member, DataId id);
  /// Re-announces every id in `member`'s store to its (possibly new)
  /// tracker root: the index-healing path after crash promotion, orphan
  /// rejoin, and subtree re-attach.  Gated like tracker_announce.
  void tracker_reannounce_store(PeerIndex member);
  /// Drops `dead` from every entry of tracker `t`'s index (crash cleanup,
  /// driven by the tracker's own failure detection).
  static void tracker_index_prune(Peer& t, PeerIndex dead);
  void maybe_add_bypass(PeerIndex a, PeerIndex b);
  /// Drops expired links so they stop consuming the delta budget.
  void prune_bypass(Peer& p);
  /// Live link covering `id`, if any; using it refreshes its expiry timer
  /// ("transmitting a packet through the bypass link will refresh the
  /// attached timer", Section 5.4).
  [[nodiscard]] BypassLink* find_bypass(Peer& p, DataId id);

  // --- Landmark binning (Section 5.2) -------------------------------------------

  [[nodiscard]] std::uint64_t coordinate_of(HostIndex host) const;

  proto::OverlayNetwork& net_;
  sim::Simulator& sim_;
  HybridParams params_;
  Rng& rng_;

  /// Drops the live_peers() and role-census caches.  MUST be called after
  /// any change to a peer's `joined` flag or (post-join) role -- every such
  /// mutation site in hybrid_membership.cpp pairs with a call to this.
  /// Transport liveness changes are tracked separately via
  /// OverlayNetwork::liveness_epoch().
  void membership_changed() const {
    live_peers_dirty_ = true;
    role_counts_dirty_ = true;
    ++tree_epoch_;
  }
  /// Rebuilds the memoized t/s-peer census when dirty.  num_tpeers() and
  /// num_speers() feed the per-sim-second sampler gauges; an O(peers) scan
  /// of the fat Peer structs on every tick was the hottest non-event cost
  /// the dispatch profiler found at 20k peers.
  void refresh_role_counts() const;

  PeerIndex server_ = kNoPeer;  // the well-known server's transport endpoint
  std::vector<Peer> peers_;
  mutable VisitMarks visit_marks_;
  /// heartbeat_step's snapshot of one peer's links, which on_neighbor_dead
  /// edits mid-scan.  Reused by every beat; beats never nest (asserted).
  std::vector<PeerIndex> beat_links_;
  bool beat_links_open_ = false;
  /// Bumped by membership_changed() and by every child-list edit
  /// (add_child, drop_child, clear_children): together with the transport's
  /// liveness epoch it dates everything an s-network walk reads.
  mutable std::uint64_t tree_epoch_ = 0;
  /// candidates_of() memo, one list per owner, stamped with the epochs it
  /// was walked under, and the seats_of() rankings made from that list.
  /// Re-walking the list empties the rankings but keeps their storage, so a
  /// warm memo ranks without allocating.  Lookup-only; never iterated.
  struct CandidateMemo {
    /// One ranked id: its seats are seats[first, first + k), where k is
    /// min(r - 1, list.size()).
    struct Ranked {
      DataId id;
      std::uint32_t first;
    };
    std::uint64_t tree_epoch = 0;
    std::uint64_t net_epoch = 0;
    std::vector<PeerIndex> list;
    std::vector<Ranked> ranked;  // sorted by id
    std::vector<PeerIndex> seats;
  };
  /// The memo for `owner`, re-walked first when either epoch moved.
  CandidateMemo& candidate_memo(PeerIndex owner) const;
  mutable std::unordered_map<std::uint32_t, CandidateMemo> candidate_memo_;
  /// live_peers() cache; rebuilt lazily after membership_changed() or a
  /// transport liveness-epoch bump.
  mutable std::vector<PeerIndex> live_peers_cache_;
  mutable bool live_peers_dirty_ = true;
  mutable std::uint64_t live_peers_net_epoch_ = 0;
  /// Memoized joined-peer census by role, rebuilt via refresh_role_counts().
  mutable std::size_t tpeer_count_ = 0;
  mutable std::size_t speer_count_ = 0;
  mutable bool role_counts_dirty_ = true;
  /// Server-side ring registry: pid -> t-peer (ordered for owner queries).
  std::map<std::uint64_t, PeerIndex> registry_;
  /// Server-side round-robin cursors: interest/cluster -> t-peer list slot.
  std::unordered_map<std::uint64_t, std::size_t> assignment_cursor_;
  /// Server's (approximate) view of each s-network's size, for
  /// smallest-first assignment.
  std::unordered_map<std::uint32_t, std::size_t> snetwork_size_;
  /// Ascending (size, pid) over *registered* t-peers: begin() is the
  /// smallest-first assignment target in O(log N_t), where the old per-join
  /// registry scan was O(N_t) -- the dominant server cost past ~20k peers.
  /// Ties break toward the lowest pid, exactly like the scan it replaces.
  std::set<std::pair<std::size_t, std::uint64_t>> snetwork_by_size_;
  /// Reverse of registry_ (t-peer -> registered pid), so a size change can
  /// reposition the t-peer's snetwork_by_size_ entry without a search.
  /// Lookup-only; never iterated.
  std::unordered_map<std::uint32_t, std::uint64_t> registered_pid_of_;
  /// Sticky interest -> s-network anchor (Section 5.3).
  std::unordered_map<std::uint32_t, PeerIndex> interest_snetwork_;
  std::vector<HostIndex> landmarks_;
  std::unordered_map<std::uint64_t, Query> queries_;
  RefPool<Route> routes_;
  RefPool<Join> joins_;
  RefPool<Handoff> handoffs_;
  RefPool<std::vector<DataId>> sweeps_;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t next_key_ = 1;
  bool failure_detection_ = false;
  /// Orphans already competing for a given dead t-peer (server-side memory
  /// so the first competitor wins).
  std::unordered_set<std::uint32_t> replaced_tpeers_;
  std::uint64_t bypass_installs_ = 0;
  std::uint64_t bypass_uses_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t replica_pushes_ = 0;
  std::uint64_t re_replication_pushes_ = 0;
  std::uint64_t anti_entropy_repairs_ = 0;
  std::uint64_t read_repairs_ = 0;
  std::vector<FloodObserver*> flood_observers_;  // not owned

  /// In-flight keyword searches.
  struct KeywordQuery {
    PeerIndex origin = kNoPeer;
    std::string substring;
    KeywordResult result;
    FlatU32Set visited;  // by peer index
    sim::TimerId timer{};
    KeywordCallback done;
  };
  std::unordered_map<std::uint64_t, KeywordQuery> keyword_queries_;
  void keyword_flood(PeerIndex at, PeerIndex from, std::uint64_t qid,
                     unsigned ttl);
  /// Ships `at`'s local matches for keyword query `q` to its origin.
  void keyword_report(PeerIndex at, std::uint64_t qid, const KeywordQuery& q);
  /// Circulates a keyword query clockwise around the ring; each t-peer
  /// contributes its own matches and floods its s-network, until the walk
  /// returns to `stop_at`.
  void keyword_ring_walk(PeerIndex at, PeerIndex stop_at, std::uint64_t qid);
  std::uint64_t start_keyword_query(PeerIndex from,
                                    const std::string& substring,
                                    sim::Duration collect_window,
                                    KeywordCallback done);
};

}  // namespace hp2p::hybrid
