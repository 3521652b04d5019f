#include "proto/overlay_network.hpp"

#include <utility>

#include "net/transit_stub.hpp"

namespace hp2p::proto {

const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kControl: return "control";
    case TrafficClass::kQuery: return "query";
    case TrafficClass::kData: return "data";
    case TrafficClass::kHeartbeat: return "heartbeat";
    case TrafficClass::kCount_: break;
  }
  return "unknown";
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kDeadSender: return "dead_sender";
    case DropReason::kDeadReceiver: return "dead_receiver";
    case DropReason::kLoss: return "loss";
    case DropReason::kTtlExhausted: return "ttl_exhausted";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kCount_: break;
  }
  return "unknown";
}

OverlayNetwork::OverlayNetwork(sim::Simulator& simulator,
                               const net::Underlay& underlay,
                               OverlayNetworkOptions options)
    : simulator_(simulator), underlay_(underlay), options_(options),
      loss_rng_(options.loss_seed) {
  // Callers run one peer per underlay host; growth past that still works.
  endpoints_.reserve(underlay_.num_hosts());
  alive_.reserve(underlay_.num_hosts());
  if (options_.track_link_stress) {
    link_stress_.emplace(underlay_.topology().graph.num_edges(),
                         options_.link_stress_mode);
  }
}

PeerIndex OverlayNetwork::add_peer(HostIndex host) {
  endpoints_.push_back({host, underlay_.locate(host)});
  alive_.push_back(true);
  return PeerIndex{static_cast<std::uint32_t>(endpoints_.size() - 1)};
}

sim::SimTime OverlayNetwork::hop_latency(PeerIndex from, PeerIndex to,
                                         std::uint32_t bytes) const {
  const Endpoint& src = endpoints_[from.value()];
  const Endpoint& dst = endpoints_[to.value()];
  const auto built = underlay_.built_latency(src.host, src.locator, dst.host,
                                             dst.locator);
  sim::SimTime delay = built ? *built : host_latency(src.host, dst.host);
  if (options_.model_transmission_delay) {
    delay += underlay_.transmission_delay(src.host, dst.host, bytes);
  }
  return delay;
}

void OverlayNetwork::build_routes(HostIndex from, HostIndex to,
                                  bool walk) const {
  sim::ComponentScope frame{simulator_, sim::Component::kTransport};
  underlay_.build_tables(from, to, walk);
}

void OverlayNetwork::transmit(PeerIndex from, PeerIndex to, TrafficClass cls,
                              std::uint32_t bytes, stats::TraceContext ctx,
                              Delivery&& deliver, sim::SimTime deadline,
                              sim::Simulator::Action* on_late) {
  using Kind = NetTraceEvent::Kind;
  // A watched message that can no longer be delivered in time has its
  // continuation scheduled at once, as its watchdog event was.
  const auto late_now = [&] {
    if (on_late != nullptr) {
      simulator_.schedule_at(deadline, std::move(*on_late));
    }
  };
  if (!alive(from)) {
    ++stats_.messages_dropped;
    ++stats_.drops_by_reason[static_cast<std::size_t>(DropReason::kDeadSender)];
    notify({Kind::kDropDeadSender, from, to, cls, bytes});
    if (spans_ != nullptr && ctx.valid()) {
      spans_->instant(ctx, "drop:dead_sender", from.value(), simulator_.now());
    }
    late_now();
    return;
  }
  sim::Duration fault_delay{};
  bool fault_drop = false;
  if (fault_) {
    const FaultAction action = fault_(from, to, cls, bytes);
    fault_drop = action.drop;
    fault_delay = action.extra_delay;
  }
  if (fault_drop ||
      (options_.loss_rate > 0.0 && loss_rng_.chance(options_.loss_rate))) {
    ++stats_.messages_lost;  // lost in transit; sender pays nothing extra
    ++stats_.drops_by_reason[static_cast<std::size_t>(DropReason::kLoss)];
    notify({Kind::kLoss, from, to, cls, bytes});
    if (spans_ != nullptr && ctx.valid()) {
      spans_->instant(ctx, "drop:loss", from.value(), simulator_.now(), "to",
                      to.value());
    }
    late_now();
    return;
  }
  ++stats_.messages_sent;
  ++stats_.messages_in_flight;
  ++endpoints_[from.value()].sent;
  stats_.bytes_sent += bytes;
  ++stats_.per_class_messages[static_cast<std::size_t>(cls)];
  stats_.per_class_bytes[static_cast<std::size_t>(cls)] += bytes;
  notify({Kind::kSend, from, to, cls, bytes});

  if (link_stress_) {
    if (underlay_.walk_cold(host_of(from), host_of(to))) [[unlikely]] {
      build_routes(host_of(from), host_of(to), true);
    }
    underlay_.for_each_path_edge(host_of(from), host_of(to),
                                 [&](net::EdgeIndex e) { link_stress_->bump(e); });
  }

  stats::TraceContext msg_span;
  if (spans_ != nullptr && ctx.valid()) {
    msg_span = spans_->begin_span(ctx, "msg", "net", from.value(),
                                  simulator_.now());
    spans_->add_arg(msg_span, "to", to.value());
    spans_->add_arg(msg_span, "bytes", bytes);
  }

  const sim::SimTime delay = hop_latency(from, to, bytes) + fault_delay;
  // A watched message that cannot arrive by its deadline is late whatever
  // becomes of it, so only one that can is given a watch record.
  std::uint32_t watch = kNoWatch;
  if (on_late != nullptr && simulator_.now() + delay <= deadline) {
    if (free_watch_ == kNoWatch) {
      watch = static_cast<std::uint32_t>(watches_.size());
      watches_.emplace_back();
    } else {
      watch = free_watch_;
      free_watch_ = watches_[watch].next_free;
    }
    watches_[watch].deadline = deadline;
    watches_[watch].on_late = std::move(*on_late);
  }
  auto arrive = [this, from, to, cls, bytes, watch, msg_span,
                 deliver = std::move(deliver)]() mutable {
    --stats_.messages_in_flight;
    if (!alive(to)) {
      ++stats_.messages_dropped;
      ++stats_.drops_by_reason[static_cast<std::size_t>(
          DropReason::kDeadReceiver)];
      notify({Kind::kDropDeadReceiver, from, to, cls, bytes});
      if (spans_ != nullptr && msg_span.valid()) {
        spans_->add_arg(msg_span, "dropped_dead_receiver", 1);
        spans_->end_span(msg_span, simulator_.now());
      }
      if (watch != kNoWatch) settle_watch(watch, false);
      return;
    }
    if (watch != kNoWatch) settle_watch(watch, true);
    ++stats_.messages_delivered;
    ++endpoints_[to.value()].received;
    simulator_.note_message(static_cast<std::size_t>(cls),
                            traffic_class_name(cls), bytes);
    notify({Kind::kDeliver, from, to, cls, bytes});
    if (spans_ != nullptr && msg_span.valid()) {
      spans_->end_span(msg_span, simulator_.now());
    }
    deliver();
  };
  // The watch index sits in the closure's padding: the hottest event of
  // every run must stay inline in the kernel's slot.
  static_assert(sim::Simulator::Action::stores_inline<decltype(arrive)>);
  {
    // Footprint for the verify/ explorer's independence relation: a
    // heartbeat, query or data delivery only touches the records of the two
    // endpoints (note_heard mutates *both* the receiver's liveness and the
    // sender's tree pointers), so deliveries on disjoint peer pairs commute.
    // Control messages restructure the overlay (joins, ring repair, server
    // competition) and stay wildcard-ordered against everything.
    const sim::FootprintScope fps{
        simulator_, cls == TrafficClass::kControl
                        ? sim::Footprint::wild()
                        : sim::Footprint::on({from.value(), to.value()})};
    simulator_.schedule_after(delay, std::move(arrive));
  }
  // The continuation orders right after the delivery, as an event scheduled
  // once this send returns would: reserved now, scheduled only if the
  // receiver is found dead; or scheduled now when the message is too slow.
  if (watch != kNoWatch) {
    watches_[watch].late = simulator_.reserve_seq();
  } else {
    late_now();
  }
}

void OverlayNetwork::send(PeerIndex from, PeerIndex to, TrafficClass cls,
                          std::uint32_t bytes, stats::TraceContext ctx,
                          Delivery deliver) {
  transmit(from, to, cls, bytes, ctx, std::move(deliver), {}, nullptr);
}

void OverlayNetwork::send_watched(PeerIndex from, PeerIndex to,
                                  TrafficClass cls, std::uint32_t bytes,
                                  stats::TraceContext ctx, Delivery deliver,
                                  sim::SimTime deadline,
                                  sim::Simulator::Action on_late) {
  transmit(from, to, cls, bytes, ctx, std::move(deliver), deadline,
           on_late ? &on_late : nullptr);
}

void OverlayNetwork::settle_watch(std::uint32_t w, bool delivered) {
  Watch& watch = watches_[w];
  if (delivered) {
    watch.on_late.reset();
  } else {
    simulator_.schedule_reserved(watch.deadline, watch.late,
                                 std::move(watch.on_late));
  }
  watch.next_free = free_watch_;
  free_watch_ = w;
}

void OverlayNetwork::note_drop(PeerIndex at, DropReason reason,
                               TrafficClass cls, stats::TraceContext ctx) {
  ++stats_.drops_by_reason[static_cast<std::size_t>(reason)];
  const auto kind = reason == DropReason::kTtlExhausted
                        ? NetTraceEvent::Kind::kDropTtl
                        : NetTraceEvent::Kind::kDropNoRoute;
  notify({kind, at, at, cls, 0});
  if (spans_ != nullptr && ctx.valid()) {
    spans_->instant(ctx,
                    reason == DropReason::kTtlExhausted ? "drop:ttl_exhausted"
                                                        : "drop:no_route",
                    at.value(), simulator_.now());
  }
}

Substrate::Substrate(Rng& topo_rng, std::uint32_t hosts,
                     OverlayNetworkOptions net_opts)
    : underlay(net::generate_transit_stub(
                   net::TransitStubParams::for_total_nodes(hosts), topo_rng),
               topo_rng),
      network(sim, underlay, net_opts) {}

}  // namespace hp2p::proto
