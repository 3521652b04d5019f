#include "chord/chord.hpp"

#include <cassert>
#include <memory>
#include <utility>

namespace hp2p::chord {

using proto::TrafficClass;

ChordNetwork::ChordNetwork(proto::OverlayNetwork& network, ChordParams params)
    : net_(network), sim_(network.simulator()), params_(params) {}

PeerIndex ChordNetwork::create_ring(HostIndex host, PeerId id) {
  const PeerIndex i = register_node(host, id);
  Node& n = node(i);
  n.successor = i;
  n.successor_id = id;
  n.predecessor = i;
  n.predecessor_id = id;
  n.joined = true;
  return i;
}

PeerIndex ChordNetwork::register_node(HostIndex host, PeerId id) {
  const PeerIndex i = net_.add_peer(host);
  assert(i.value() == nodes_.size());
  Node n;
  n.id = id;
  n.self = i;
  n.fingers.init(id);
  nodes_.push_back(std::move(n));
  return i;
}

bool ChordNetwork::owns(const Node& n, std::uint64_t id) const {
  if (!n.joined || n.predecessor == kNoPeer) return false;
  return ring::in_arc_open_closed(id, n.predecessor_id.value(),
                                  n.id.value());
}

PeerIndex ChordNetwork::next_hop(const Node& n, std::uint64_t target) const {
  if (params_.routing == RoutingMode::kFinger) {
    const Finger f = n.fingers.closest_preceding(target);
    if (f.node != kNoPeer && f.node != n.self) return f.node;
  }
  return n.successor;
}

void ChordNetwork::route_to_owner(PeerIndex at, Route route,
                                  TrafficClass cls, std::uint32_t bytes,
                                  const OwnerAction& at_owner) {
  Node& here = node(at);
  if (owns(here, route.target)) {
    at_owner(at, route);
    return;
  }
  const PeerIndex next = next_hop(here, route.target);
  if (next == kNoPeer || next == at) {
    // Routing dead end (e.g. ring fragment during churn); the request is
    // lost and the origin's timeout will fire.
    net_.note_drop(at, proto::DropReason::kNoRoute, cls, route.trace);
    return;
  }
  ++route.hops;
  ++route.contacted;
  net_.send(at, next, cls, bytes, route.trace,
            [this, next, route, cls, bytes, at_owner] {
              if (spans() != nullptr && route.trace.valid()) {
                spans()->instant(route.trace, "ring_hop", next.value(),
                                 sim_.now(), "hop", route.hops);
              }
              route_to_owner(next, route, cls, bytes, at_owner);
            });
}

void ChordNetwork::join(PeerIndex joining, PeerIndex bootstrap,
                        JoinCallback done) {
  const sim::SimTime started = sim_.now();
  Node& n = node(joining);
  assert(!n.joined);
  Route route;
  route.origin = joining;
  route.target = n.id.value();
  // One hop to reach the bootstrap peer with the join request.
  route.hops = 1;
  route.contacted = 1;
  net_.send(joining, bootstrap, TrafficClass::kControl, proto::kControlBytes,
            [this, bootstrap, route, joining, started,
             done = std::move(done)] {
              route_to_owner(
                  bootstrap, route, TrafficClass::kControl,
                  proto::kControlBytes,
                  [this, joining, started, done](PeerIndex owner,
                                                 const Route& r) {
                    finish_join(owner, joining, r, started, done);
                  });
            });
}

void ChordNetwork::finish_join(PeerIndex owner, PeerIndex joining,
                               Route route, sim::SimTime started,
                               const JoinCallback& done) {
  // `owner` is the successor-to-be; the joining node slots in between the
  // owner's predecessor and the owner.
  Node& suc = node(owner);
  Node& n = node(joining);
  if (!suc.joined) return;  // owner left while the request was in flight

  // Id-conflict resolution (paper's pre.check): midpoint of the free arc.
  if (n.id == suc.id || n.id == suc.predecessor_id) {
    n.id = PeerId{ring::midpoint_cw(suc.predecessor_id.value(),
                                    suc.id.value())};
    if (n.id == suc.predecessor_id) {
      // Arc too small to split; give up (caller may retry with another id).
      if (done) done(proto::JoinResult{sim_.now() - started, route.hops});
      return;
    }
    n.fingers.init(n.id);
  }

  const PeerIndex pred = suc.predecessor;
  const PeerId pred_id = suc.predecessor_id;

  // Join triangle: owner -> joining (neighbor info), joining -> pred
  // (take me as successor), pred -> joining (ack).  Load transfer rides
  // along with the final pointer flip.
  net_.send(owner, joining, TrafficClass::kControl, proto::kControlBytes,
            [this, owner, joining, pred, pred_id, route, started, done] {
    Node& nn = node(joining);
    Node& suc2 = node(owner);
    nn.successor = owner;
    nn.successor_id = suc2.id;
    nn.predecessor = pred;
    nn.predecessor_id = pred_id;
    net_.send(joining, pred, TrafficClass::kControl, proto::kControlBytes,
              [this, owner, joining, pred, route, started, done] {
      Node& p = node(pred);
      Node& nn2 = node(joining);
      p.successor = joining;
      p.successor_id = nn2.id;
      net_.send(pred, joining, TrafficClass::kControl, proto::kControlBytes,
                [this, owner, joining, route, started, done] {
        Node& suc3 = node(owner);
        Node& nn3 = node(joining);
        suc3.predecessor = joining;
        suc3.predecessor_id = nn3.id;
        nn3.joined = true;
        // suc.loadtransfer(n.id): move every item in (old_pred, n.id] down.
        auto items = suc3.store.extract_arc(nn3.predecessor_id, nn3.id);
        if (!items.empty()) {
          net_.send(owner, joining, TrafficClass::kData,
                    proto::kDataBytes *
                        static_cast<std::uint32_t>(items.size()),
                    [this, joining, items = std::move(items)]() mutable {
                      Node& dst = node(joining);
                      for (auto& item : items) dst.store.insert(std::move(item));
                    });
        }
        if (maintenance_started_) {
          schedule_maintenance(joining, *maintenance_rng_);
        }
        if (done) {
          done(proto::JoinResult{sim_.now() - started, route.hops});
        }
      });
    });
  });
}

void ChordNetwork::leave(PeerIndex leaving) {
  Node& n = node(leaving);
  if (!n.joined) return;
  n.joined = false;
  const PeerIndex pred = n.predecessor;
  const PeerIndex suc = n.successor;
  if (suc == leaving) {  // last node of the ring
    net_.set_alive(leaving, false);
    return;
  }
  // loaddump(): everything moves to the successor.
  auto items = n.store.extract_all();
  net_.send(leaving, suc, TrafficClass::kData,
            proto::kDataBytes *
                static_cast<std::uint32_t>(std::max<std::size_t>(items.size(), 1)),
            [this, suc, items = std::move(items)]() mutable {
              Node& s = node(suc);
              for (auto& item : items) s.store.insert(std::move(item));
            });
  // Pointer repair messages.
  const PeerId pred_id = n.predecessor_id;
  const PeerId suc_id = n.successor_id;
  net_.send(leaving, pred, TrafficClass::kControl, proto::kControlBytes,
            [this, pred, suc, suc_id] {
              Node& p = node(pred);
              p.successor = suc;
              p.successor_id = suc_id;
            });
  net_.send(leaving, suc, TrafficClass::kControl, proto::kControlBytes,
            [this, suc, pred, pred_id] {
              Node& s = node(suc);
              s.predecessor = pred;
              s.predecessor_id = pred_id;
            });
  net_.set_alive(leaving, false);
}

void ChordNetwork::crash(PeerIndex i) {
  Node& n = node(i);
  n.joined = false;
  net_.set_alive(i, false);  // data is lost with the node
}

void ChordNetwork::store(PeerIndex from, const std::string& key,
                         std::uint64_t value, StoreCallback done) {
  const DataId id = hash_key(key);
  Route route;
  route.origin = from;
  route.target = id.value();
  if (spans() != nullptr) {
    route.trace = spans()->start_trace("store", "store", from.value(),
                                       sim_.now());
    const stats::TraceContext st = route.trace;
    done = [this, st, done = std::move(done)] {
      if (spans() != nullptr) spans()->end_span(st, sim_.now());
      if (done) done();
    };
  }
  proto::DataItem item{id, key, value, from};
  route_to_owner(from, route, TrafficClass::kData, proto::kDataBytes,
                 [this, item = std::move(item), done = std::move(done)](
                     PeerIndex owner, const Route&) {
                   node(owner).store.insert(item);
                   if (done) done();
                 });
}

void ChordNetwork::lookup(PeerIndex from, const std::string& key,
                          LookupCallback done) {
  const DataId id = hash_key(key);
  const sim::SimTime started = sim_.now();

  stats::TraceContext trace;
  if (spans() != nullptr) {
    trace = spans()->start_trace("lookup", "lookup", from.value(), sim_.now());
    spans()->add_arg(trace, "target", static_cast<std::int64_t>(id.value()));
  }

  // Shared completion state: first of {data reply, negative reply, timeout}
  // wins.
  struct Pending {
    bool finished = false;
    sim::TimerId timer{};
  };
  auto pending = std::make_shared<Pending>();
  auto finish = [this, pending, done, trace](proto::LookupResult r) {
    if (pending->finished) return;
    pending->finished = true;
    sim_.cancel(pending->timer);
    if (spans() != nullptr && trace.valid()) {
      spans()->add_arg(trace, "success", r.success ? 1 : 0);
      spans()->end_span(trace, sim_.now());
    }
    done(r);
  };

  pending->timer = sim_.schedule_after(
      params_.lookup_timeout, [finish] { finish(proto::LookupResult{}); });

  Route route;
  route.origin = from;
  route.target = id.value();
  route.trace = trace;
  route_to_owner(
      from, route, TrafficClass::kQuery, proto::kQueryBytes,
      [this, id, from, started, finish](PeerIndex owner, const Route& r) {
        const proto::DataItem* item = node(owner).store.find(id);
        const bool hit = item != nullptr;
        stats::TraceContext reply;
        if (spans() != nullptr && r.trace.valid()) {
          reply = spans()->begin_span(r.trace, "reply", "reply",
                                      owner.value(), sim_.now());
        }
        // Reply travels directly back to the requester: data on hit,
        // a small negative ack on miss.
        net_.send(owner, from,
                  hit ? TrafficClass::kData : TrafficClass::kControl,
                  hit ? proto::kDataBytes : proto::kControlBytes,
                  reply.valid() ? reply : r.trace,
                  [this, owner, r, started, hit, reply, finish] {
                    if (spans() != nullptr && reply.valid()) {
                      spans()->end_span(reply, sim_.now());
                    }
                    proto::LookupResult result;
                    result.success = hit;
                    result.latency = sim_.now() - started;
                    result.request_hops = r.hops;
                    result.peers_contacted = r.contacted + 1;  // + owner
                    result.found_at = hit ? owner : kNoPeer;
                    finish(result);
                  });
      });
}

void ChordNetwork::start_maintenance(Rng& rng) {
  maintenance_started_ = true;
  maintenance_rng_ = &rng;
  for (auto& n : nodes_) {
    if (n.joined) schedule_maintenance(n.self, rng);
  }
}

void ChordNetwork::schedule_maintenance(PeerIndex i, Rng& rng) {
  // Desynchronize nodes with a random phase so stabilization traffic does
  // not arrive in lockstep bursts.
  const auto phase = sim::SimTime::micros(static_cast<std::int64_t>(
      rng.uniform(0, static_cast<std::uint64_t>(
                         params_.stabilize_interval.as_micros()))));
  sim_.schedule_after(phase, [this, i] { maintenance_tick(i); });
}

void ChordNetwork::maintenance_tick(PeerIndex i) {
  // Periodic stabilize + fix-fingers; stops for good once the node dies.
  if (!net_.alive(i)) return;
  if (node(i).joined) {
    stabilize(i);
    fix_next_finger(i);
  }
  sim_.schedule_after(params_.stabilize_interval,
                      [this, i] { maintenance_tick(i); });
}

void ChordNetwork::stabilize(PeerIndex i) {
  Node& n = node(i);
  if (n.successor == kNoPeer || n.successor == i) return;
  if (n.probe_outstanding) return;
  n.probe_outstanding = true;
  const PeerIndex suc = n.successor;

  n.probe_timer = sim_.schedule_after(params_.probe_timeout,
                                      [this, i] { handle_probe_timeout(i); });

  // Ask the successor for its predecessor and successor list.
  net_.send(i, suc, TrafficClass::kControl, proto::kControlBytes,
            [this, i, suc] {
    Node& s = node(suc);
    if (!s.joined) return;  // timeout at i will repair
    const PeerIndex s_pred = s.predecessor;
    const PeerId s_pred_id = s.predecessor_id;
    // Snapshot of successor's own successor list for fault tolerance.
    auto s_list = s.successor_list;
    s_list.insert(s_list.begin(), {s.self, s.id});
    if (s_list.size() > params_.successor_list_size) {
      s_list.resize(params_.successor_list_size);
    }
    net_.send(suc, i, TrafficClass::kControl, proto::kControlBytes,
              [this, i, suc, s_pred, s_pred_id, s_list = std::move(s_list)] {
      Node& me = node(i);
      if (me.probe_timer.valid()) sim_.cancel(me.probe_timer);
      me.probe_outstanding = false;
      me.successor_list = s_list;
      // Adopt successor's predecessor when it sits between us.
      if (s_pred != kNoPeer && s_pred != i &&
          ring::in_arc_open_open(s_pred_id.value(), me.id.value(),
                                 me.successor_id.value()) &&
          node(s_pred).joined) {
        me.successor = s_pred;
        me.successor_id = s_pred_id;
      }
      // notify(successor): tell it we believe we are its predecessor.
      const PeerIndex cur_suc = me.successor;
      net_.send(i, cur_suc, TrafficClass::kControl, proto::kControlBytes,
                [this, i, cur_suc] {
                  Node& s2 = node(cur_suc);
                  const Node& me2 = node(i);
                  if (!s2.joined) return;
                  if (s2.predecessor == kNoPeer ||
                      s2.predecessor == cur_suc ||
                      !node(s2.predecessor).joined ||
                      ring::in_arc_open_open(me2.id.value(),
                                             s2.predecessor_id.value(),
                                             s2.id.value())) {
                    s2.predecessor = i;
                    s2.predecessor_id = me2.id;
                  }
                });
    });
    (void)suc;
  });
}

void ChordNetwork::handle_probe_timeout(PeerIndex i) {
  Node& n = node(i);
  n.probe_outstanding = false;
  // Successor presumed dead: fail over to the next live successor-list
  // entry.
  n.fingers.evict(n.successor);
  for (const auto& [cand, cand_id] : n.successor_list) {
    if (cand != n.successor && cand != i && node(cand).joined &&
        net_.alive(cand)) {
      n.successor = cand;
      n.successor_id = cand_id;
      return;
    }
  }
  // No candidate: collapse to a self-ring; future joins can rebuild.
  n.successor = i;
  n.successor_id = n.id;
}

void ChordNetwork::fix_next_finger(PeerIndex i) {
  Node& n = node(i);
  const unsigned k = n.next_finger_to_fix;
  n.next_finger_to_fix = (k + 1) % FingerTable::size();
  Route route;
  route.origin = i;
  route.target = n.fingers.start(k);
  route_to_owner(i, route, TrafficClass::kControl, proto::kControlBytes,
                 [this, i, k](PeerIndex owner, const Route&) {
                   // Owner of the finger start is the finger target; report
                   // back (one control message) and install.
                   const PeerId owner_id = node(owner).id;
                   net_.send(owner, i, TrafficClass::kControl,
                             proto::kControlBytes, [this, i, k, owner, owner_id] {
                               node(i).fingers.set(k, owner, owner_id);
                             });
                 });
}

ChordNetwork::NodeView ChordNetwork::view(PeerIndex i) const {
  const Node& n = node(i);
  return NodeView{n.id,     n.successor,       n.predecessor,
                  n.joined, net_.alive(n.self), n.store.size()};
}

const proto::DataStore& ChordNetwork::store_of(PeerIndex i) const {
  return node(i).store;
}

bool ChordNetwork::verify_ring(PeerIndex start, std::size_t expected) const {
  if (expected == 0) return true;
  PeerIndex at = start;
  std::size_t seen = 0;
  do {
    const Node& n = node(at);
    if (!n.joined) return false;
    // Successor's predecessor must point back.
    const Node& s = node(n.successor);
    if (s.predecessor != at) return false;
    at = n.successor;
    if (++seen > expected) return false;
  } while (at != start);
  return seen == expected;
}

std::size_t ChordNetwork::total_items() const {
  std::size_t total = 0;
  for (const auto& n : nodes_) {
    if (n.joined) total += n.store.size();
  }
  return total;
}

bool ChordNetwork::placement_consistent() const {
  for (const auto& n : nodes_) {
    if (!n.joined) continue;
    bool ok = true;
    n.store.for_each([&](const proto::DataItem& item) {
      if (!ring::in_arc_open_closed(item.id.value(),
                                    n.predecessor_id.value(),
                                    n.id.value())) {
        ok = false;
      }
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace hp2p::chord
