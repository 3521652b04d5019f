// Standalone Chord overlay (Stoica et al.), the structured baseline of the
// paper and the p_s = 0 degenerate case of the hybrid system.
//
// Implemented as an event-driven protocol over proto::OverlayNetwork: every
// routing step, handshake, heartbeat and data transfer is a simulated
// message with real underlay latency, so hop counts, latencies and connum
// come out of the same accounting the hybrid system uses.
//
// Two routing modes are provided:
//  * ring   -- forward along successor pointers (the paper's Table 2 numbers
//              match this mode: ~N/2 contacts per lookup),
//  * finger -- classic O(log N) greedy finger routing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chord/finger_table.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "proto/data_store.hpp"
#include "proto/metrics.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"

namespace hp2p::chord {

/// How lookup/store/join requests travel around the ring.
enum class RoutingMode : std::uint8_t { kRing, kFinger };

/// Protocol parameters.
struct ChordParams {
  RoutingMode routing = RoutingMode::kFinger;
  /// Successor-list length r; the ring survives up to r-1 consecutive
  /// crashes between stabilization rounds.
  unsigned successor_list_size = 8;
  /// Period of the stabilize() protocol (successor liveness + pointer
  /// repair).
  sim::Duration stabilize_interval = sim::SimTime::millis(500);
  /// Period of fix_fingers(); one finger is refreshed per round per node.
  sim::Duration fix_fingers_interval = sim::SimTime::millis(250);
  /// Reply deadline after which a lookup is declared failed.
  sim::Duration lookup_timeout = sim::SimTime::seconds(15);
  /// Deadline for a stabilize probe before the successor is presumed dead.
  sim::Duration probe_timeout = sim::SimTime::millis(1500);
};

/// The whole Chord ring inside one simulation replica.
class ChordNetwork {
 public:
  using JoinCallback = std::function<void(proto::JoinResult)>;
  using LookupCallback = std::function<void(proto::LookupResult)>;
  using StoreCallback = std::function<void()>;

  ChordNetwork(proto::OverlayNetwork& network, ChordParams params);

  /// Creates the first node, forming a one-node ring.
  PeerIndex create_ring(HostIndex host, PeerId id);

  /// Registers a node (not yet part of the ring).
  PeerIndex register_node(HostIndex host, PeerId id);

  /// Runs the join protocol from `bootstrap`; `done` fires when the node is
  /// fully inserted and load transfer finished.
  void join(PeerIndex node, PeerIndex bootstrap, JoinCallback done = {});

  /// Graceful departure: hands all data to the successor and repairs
  /// neighbor pointers.
  void leave(PeerIndex node);

  /// Abrupt departure: the node simply stops; its data is lost and the ring
  /// self-heals via successor lists + stabilization.
  void crash(PeerIndex node);

  /// Inserts (key, value); routed to the responsible node.
  void store(PeerIndex from, const std::string& key, std::uint64_t value,
             StoreCallback done = {});

  /// Looks up a key; `done` always fires (success, negative reply, or
  /// timeout).
  void lookup(PeerIndex from, const std::string& key, LookupCallback done);

  /// Starts periodic stabilization/fix-fingers on all currently joined
  /// nodes (and any that join later).
  void start_maintenance(Rng& rng);

  // --- Introspection for tests and experiments -----------------------------

  struct NodeView {
    PeerId id{};
    PeerIndex successor = kNoPeer;
    PeerIndex predecessor = kNoPeer;
    bool joined = false;
    bool alive = true;
    std::size_t store_size = 0;
  };
  [[nodiscard]] NodeView view(PeerIndex node) const;
  [[nodiscard]] const proto::DataStore& store_of(PeerIndex node) const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Walks successor pointers from `start`; true when the walk visits
  /// exactly `expected` live nodes, in strictly increasing ring order, and
  /// returns to the start (the ring invariant).
  [[nodiscard]] bool verify_ring(PeerIndex start, std::size_t expected) const;

  /// Total items stored across live nodes.
  [[nodiscard]] std::size_t total_items() const;

  /// True when every key in the given node's store is owned by that node.
  [[nodiscard]] bool placement_consistent() const;

 private:
  struct Node {
    PeerId id{};
    PeerIndex self = kNoPeer;
    PeerIndex successor = kNoPeer;
    PeerId successor_id{};
    PeerIndex predecessor = kNoPeer;
    PeerId predecessor_id{};
    std::vector<std::pair<PeerIndex, PeerId>> successor_list;
    FingerTable fingers;
    proto::DataStore store;
    bool joined = false;
    unsigned next_finger_to_fix = 0;
    bool probe_outstanding = false;
    sim::TimerId probe_timer{};
  };

  /// Routing context carried hop to hop inside message closures.
  struct Route {
    PeerIndex origin = kNoPeer;
    std::uint64_t target = 0;
    std::uint32_t hops = 0;
    std::uint32_t contacted = 0;
    stats::TraceContext trace;  // causal header (invalid when untraced)
  };
  using OwnerAction = std::function<void(PeerIndex owner, const Route&)>;

  Node& node(PeerIndex i) { return nodes_[i.value()]; }
  [[nodiscard]] const Node& node(PeerIndex i) const {
    return nodes_[i.value()];
  }
  /// The transport's span recorder (nullptr when untraced): lookups and
  /// stores then record root spans with per-hop ring_hop instants.
  stats::SpanRecorder* spans() const { return net_.span_recorder(); }
  [[nodiscard]] bool owns(const Node& n, std::uint64_t id) const;
  [[nodiscard]] PeerIndex next_hop(const Node& n, std::uint64_t target) const;

  /// Forwards the request until the owner of route.target is reached, then
  /// invokes `at_owner` there.
  void route_to_owner(PeerIndex at, Route route, proto::TrafficClass cls,
                      std::uint32_t bytes, const OwnerAction& at_owner);

  void finish_join(PeerIndex owner, PeerIndex joining, Route route,
                   sim::SimTime started, const JoinCallback& done);
  void stabilize(PeerIndex i);
  void handle_probe_timeout(PeerIndex i);
  void fix_next_finger(PeerIndex i);
  void schedule_maintenance(PeerIndex i, Rng& rng);
  void maintenance_tick(PeerIndex i);

  proto::OverlayNetwork& net_;
  sim::Simulator& sim_;
  ChordParams params_;
  std::vector<Node> nodes_;
  bool maintenance_started_ = false;
  Rng* maintenance_rng_ = nullptr;
};

}  // namespace hp2p::chord
