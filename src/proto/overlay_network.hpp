// Overlay message transport.
//
// All three overlays (Chord baseline, Gnutella baseline, hybrid system) move
// messages through this class.  It is deliberately type-erased: a "message"
// is a closure that runs at the receiver when delivery completes, so each
// protocol keeps fully typed handlers while the transport provides the
// shared physics -- propagation delay from the underlay shortest path,
// optional access-link transmission delay (Section 5.1 heterogeneity),
// silent drops to crashed peers, and the accounting every experiment needs
// (message counts, bytes, link stress).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "net/underlay.hpp"
#include "sim/simulator.hpp"
#include "stats/trace.hpp"

namespace hp2p::proto {

/// Traffic classes, for per-category accounting in the benches.
enum class TrafficClass : std::uint8_t {
  kControl,    // join/leave/stabilization handshakes
  kQuery,      // lookup requests (flooding / ring forwarding)
  kData,       // data-item transfers (stores, lookup replies)
  kHeartbeat,  // HELLO and acknowledgment messages
  kCount_,     // sentinel
};

inline constexpr std::size_t kNumTrafficClasses =
    static_cast<std::size_t>(TrafficClass::kCount_);

/// Stable snake_case name for metric keys and profile attribution.
[[nodiscard]] const char* traffic_class_name(TrafficClass cls);

/// Nominal wire sizes (bytes) per message family.  Only ratios matter: they
/// feed the transmission-delay term and the bandwidth accounting.
inline constexpr std::uint32_t kControlBytes = 64;
inline constexpr std::uint32_t kQueryBytes = 128;
inline constexpr std::uint32_t kDataBytes = 8192;
inline constexpr std::uint32_t kHeartbeatBytes = 32;

/// Why a message (or a whole routing attempt) was abandoned.  The first
/// three are observed by the transport itself; the last two are reported by
/// the protocols via note_drop() because only they know a TTL ran out or a
/// route dead-ended.
enum class DropReason : std::uint8_t {
  kDeadSender,    // sender crashed before send
  kDeadReceiver,  // receiver crashed before delivery
  kLoss,          // random in-transit loss
  kTtlExhausted,  // flood/walk TTL reached zero
  kNoRoute,       // routing dead end (no live successor / orphaned peer)
  kCount_,        // sentinel
};

inline constexpr std::size_t kNumDropReasons =
    static_cast<std::size_t>(DropReason::kCount_);

/// Stable snake_case name for metric keys and trace annotations.
[[nodiscard]] const char* drop_reason_name(DropReason reason);

/// Aggregate transport counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // receiver dead at delivery time
  std::uint64_t messages_lost = 0;     // random in-transit loss
  /// Sent but fate undecided (still propagating).  At any instant
  /// sent == delivered + dead-receiver drops + in_flight -- the conservation
  /// law the OverlayAuditor asserts.
  std::uint64_t messages_in_flight = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t per_class_messages[kNumTrafficClasses] = {};
  std::uint64_t per_class_bytes[kNumTrafficClasses] = {};
  std::uint64_t drops_by_reason[kNumDropReasons] = {};

  [[nodiscard]] std::uint64_t class_messages(TrafficClass c) const {
    return per_class_messages[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t class_bytes(TrafficClass c) const {
    return per_class_bytes[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t reason_drops(DropReason r) const {
    return drops_by_reason[static_cast<std::size_t>(r)];
  }
};

/// One transport-level trace record, delivered to every NetObserver.  kSend
/// fires at send time; the other kinds fire when the message's fate is
/// decided (delivery, receiver-dead drop, in-transit loss, sender-dead drop
/// at send time).
struct NetTraceEvent {
  /// kDropTtl / kDropNoRoute come from note_drop() (protocol-level); the
  /// rest from the transport itself.
  enum class Kind {
    kSend,
    kDeliver,
    kDropDeadSender,
    kDropDeadReceiver,
    kLoss,
    kDropTtl,
    kDropNoRoute,
  };
  Kind kind;
  PeerIndex from;
  PeerIndex to;
  TrafficClass cls;
  std::uint32_t bytes;
};

/// Observer of the transport: sees every send/deliver/drop/loss.
class NetObserver {
 public:
  virtual ~NetObserver() = default;
  virtual void on_message(const NetTraceEvent& ev) = 0;
};

/// Verdict of the optional fault hook for one message: drop it outright
/// (accounted exactly like random in-transit loss) and/or stretch its
/// transit by `extra_delay`.  The chaos engine composes loss bursts,
/// latency storms and partitions out of these two primitives.
struct FaultAction {
  bool drop = false;
  sim::Duration extra_delay{};
};

/// Transport options.
struct OverlayNetworkOptions {
  /// Adds bytes/access-link-capacity to every hop (Section 5.1 model).
  bool model_transmission_delay = false;
  /// Tracks per-physical-edge message copies (link stress, costs one path
  /// walk per message).
  bool track_link_stress = false;
  /// Probability that any message is silently lost in transit
  /// (failure-injection knob; 0 = reliable, the paper's assumption).
  double loss_rate = 0.0;
  /// Seed of the loss process (independent of protocol randomness).
  std::uint64_t loss_seed = 0x10552eed;
};

/// The transport.  One instance per simulation replica.
class OverlayNetwork {
 public:
  /// Receiver-side continuation of one message.  Inline capacity covers
  /// every protocol handler closure on the hot path; oversized closures
  /// still work, they just heap-allocate (see InlineFunction).
  static constexpr std::size_t kDeliveryCapacity = 80;
  using Delivery = InlineFunction<void(), kDeliveryCapacity>;

  OverlayNetwork(sim::Simulator& simulator, const net::Underlay& underlay,
                 OverlayNetworkOptions options = {});

  /// Registers a peer living on `host`; returns its dense index.
  PeerIndex add_peer(HostIndex host);

  [[nodiscard]] std::uint32_t num_peers() const {
    return static_cast<std::uint32_t>(endpoints_.size());
  }
  [[nodiscard]] HostIndex host_of(PeerIndex peer) const {
    return endpoints_[peer.value()].host;
  }
  [[nodiscard]] bool alive(PeerIndex peer) const {
    return alive_[peer.value()];
  }

  /// Marks a peer dead (crash) or resurrected.  In-flight messages to a dead
  /// peer are dropped at delivery time -- exactly the paper's crash model.
  void set_alive(PeerIndex peer, bool is_alive) {
    alive_[peer.value()] = is_alive;
    ++liveness_epoch_;
  }

  /// Bumped on every set_alive(); lets higher layers cache liveness-derived
  /// snapshots (e.g. HybridSystem::live_peers) without hooking every crash
  /// and leave path.
  [[nodiscard]] std::uint64_t liveness_epoch() const {
    return liveness_epoch_;
  }

  /// Sends one overlay message: schedules `deliver` at
  /// now + propagation(+transmission).  No-op (counted as dropped) when the
  /// sender is dead; delivery is suppressed when the receiver is dead then.
  void send(PeerIndex from, PeerIndex to, TrafficClass cls,
            std::uint32_t bytes, Delivery deliver) {
    send(from, to, cls, bytes, stats::TraceContext{}, std::move(deliver));
  }

  /// Traced send: `ctx` is the causal header the protocols propagate.  When
  /// a span recorder is installed and `ctx` is valid, the message's transit
  /// becomes a "net" child span (annotated with destination and bytes, and
  /// with its fate on drop/loss).
  void send(PeerIndex from, PeerIndex to, TrafficClass cls,
            std::uint32_t bytes, stats::TraceContext ctx, Delivery deliver);

  /// Watched send: send(), plus `on_late` run at `deadline` iff the
  /// message has not been delivered by then -- the sender was dead, it was
  /// lost (randomly or by the fault hook), it arrives after `deadline`, or
  /// its receiver is dead on arrival.  A delivered message drops `on_late`
  /// unrun, so a healthy hop costs one kernel event, not two.  `on_late`
  /// takes the (deadline, seq) order, tag and footprint of an event
  /// scheduled right after the send returns (DESIGN.md §5.18).  An empty
  /// `on_late` makes this a plain send().
  void send_watched(PeerIndex from, PeerIndex to, TrafficClass cls,
                    std::uint32_t bytes, stats::TraceContext ctx,
                    Delivery deliver, sim::SimTime deadline,
                    sim::Simulator::Action on_late);

  /// Protocol-level drop report (TTL exhausted, no route): bumps the
  /// per-reason counter, emits a NetTraceEvent, and -- when traced --
  /// records an instant under `ctx`.  Transport-level reasons are counted
  /// by send() itself.
  void note_drop(PeerIndex at, DropReason reason, TrafficClass cls,
                 stats::TraceContext ctx = {});

  /// Latency of a single overlay hop, as send() would charge it.  Reads
  /// the two peers' Endpoint records and, for a cross-domain pair, one cell
  /// of the underlay's core table.
  [[nodiscard]] sim::SimTime hop_latency(PeerIndex from, PeerIndex to,
                                         std::uint32_t bytes) const;

  /// Propagation delay between two hosts (Underlay::latency), for probes
  /// such as landmark binning that simulated code makes outside send().
  [[nodiscard]] sim::SimTime host_latency(HostIndex from, HostIndex to) const {
    if (const auto t = underlay_.built_latency(from, to)) [[likely]] {
      return *t;
    }
    build_routes(from, to, false);
    return underlay_.latency(from, to);
  }

  /// Messages this peer has sent / had delivered to it -- the raw material
  /// of the paper's t-peer vs s-peer load-imbalance argument (Section 5.1).
  [[nodiscard]] std::uint64_t messages_sent_by(PeerIndex peer) const {
    return endpoints_[peer.value()].sent;
  }
  [[nodiscard]] std::uint64_t messages_received_by(PeerIndex peer) const {
    return endpoints_[peer.value()].received;
  }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const net::Underlay& underlay() const { return underlay_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const net::LinkStress* link_stress() const {
    return link_stress_ ? &*link_stress_ : nullptr;
  }

  /// Registers `o` (not owned; must outlive its registration).  One
  /// predicted branch per message when none is.  Deliveries also reach the
  /// kernel's observers (Simulator::note_message), e.g. the profiler.
  void add_observer(NetObserver* o) { observers_.push_back(o); }
  void remove_observer(NetObserver* o) { std::erase(observers_, o); }

  /// Installs (or, with nullptr, removes) the span recorder that traced
  /// sends and note_drop() report into, and that every overlay on this
  /// transport records its store/lookup span trees into.  Not owned.
  void set_span_recorder(stats::SpanRecorder* recorder) { spans_ = recorder; }
  [[nodiscard]] stats::SpanRecorder* span_recorder() const { return spans_; }

  using FaultFn = std::function<FaultAction(PeerIndex from, PeerIndex to,
                                            TrafficClass cls,
                                            std::uint32_t bytes)>;
  /// Installs (or, with an empty function, removes) the fault hook consulted
  /// on every live-sender send, after the random-loss roll.  A `drop`
  /// verdict is indistinguishable from random loss in every counter and
  /// trace record, so the conservation law the auditor checks still holds;
  /// `extra_delay` is added to the hop latency of that one message.
  void set_fault(FaultFn fn) { fault_ = std::move(fn); }

 private:
  /// A watched send whose fate is still open: the continuation to schedule
  /// if the receiver turns out dead, where in the event order it goes, and
  /// the next free record's index while the record is unused.
  struct Watch {
    sim::SimTime deadline{};
    sim::Simulator::Reservation late{};
    sim::Simulator::Action on_late;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoWatch = ~std::uint32_t{0};

  /// send() and send_watched() in one: `on_late` is nullptr for a plain
  /// send.  Inlined into both: as a call of its own it cost a plain send
  /// ~15% in BM_TransportSteadyStateZeroAlloc.
  [[gnu::always_inline]] inline void transmit(PeerIndex from, PeerIndex to, TrafficClass cls,
                std::uint32_t bytes, stats::TraceContext ctx,
                Delivery&& deliver, sim::SimTime deadline,
                sim::Simulator::Action* on_late);
  /// Ends watch `w` at delivery time: schedules its continuation when the
  /// receiver is dead, drops it unrun otherwise, and frees the record.
  void settle_watch(std::uint32_t w, bool delivered);

  void notify(const NetTraceEvent& ev) {
    for (NetObserver* o : observers_) o->on_message(ev);
  }

  /// Builds the stub-domain tables a latency query between two hosts (or,
  /// with `walk`, a path walk) needs, out of line: it runs once per domain.
  /// The build is net-layer work, so it runs in a kTransport frame of its
  /// own instead of the frame of whichever protocol queried first.
  [[gnu::cold]] void build_routes(HostIndex from, HostIndex to,
                                  bool walk) const;

  /// One peer's transport record: its host, where that host attaches to
  /// the underlay's core, and its message counters.  A send reads and
  /// bumps the sender's record and reads the receiver's; a delivery bumps
  /// the receiver's.  One 32-byte record per peer instead of parallel
  /// arrays keeps a hop to about one cache line per endpoint.
  struct Endpoint {
    HostIndex host;
    net::Underlay::Locator locator;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  static_assert(sizeof(Endpoint) == 32);

  sim::Simulator& simulator_;
  const net::Underlay& underlay_;
  OverlayNetworkOptions options_;
  std::vector<Endpoint> endpoints_;  // by peer index
  std::vector<bool> alive_;
  std::uint64_t liveness_epoch_ = 0;
  NetworkStats stats_;
  std::optional<net::LinkStress> link_stress_;
  Rng loss_rng_;
  std::vector<NetObserver*> observers_;  // not owned
  FaultFn fault_;
  stats::SpanRecorder* spans_ = nullptr;
  /// Watched sends in flight, recycled through an intrusive free list, so
  /// the steady state allocates nothing.  A delivery closure names its
  /// record by a 4-byte index that fits in the closure's padding.
  std::vector<Watch> watches_;
  std::uint32_t free_watch_ = kNoWatch;
};

/// The simulation substrate an overlay runs on: the kernel, a transit-stub
/// underlay, and the transport over it.  chaos::World (so every runner)
/// and the protocol test fixtures build their topology with this one
/// constructor.
struct Substrate {
  /// Generates at least `hosts` hosts and deals their capacities, both from
  /// `topo_rng`.
  Substrate(Rng& topo_rng, std::uint32_t hosts,
            OverlayNetworkOptions net_opts = {});

  sim::Simulator sim;
  net::Underlay underlay;
  OverlayNetwork network;
};

}  // namespace hp2p::proto
