// HybridSystem: data insertion and lookup (Section 3.4), both placement
// schemes, TTL flooding, bypass links (Section 5.4) and the BitTorrent-style
// tracker mode (Section 5.5).
#include <algorithm>
#include <cassert>
#include <utility>

#include "hybrid/hybrid_system.hpp"

namespace hp2p::hybrid {

using proto::TrafficClass;

bool HybridSystem::in_local_segment(const Peer& p, DataId id) const {
  const PeerIndex root = p.tpeer;
  if (root == kNoPeer) return false;
  const Peer& t = peer(root);
  if (!t.joined) return false;
  return ring::in_arc_open_closed(
      id.value(), ring_view(t).predecessor.id.value(), t.pid.value());
}

// --- Store (Section 3.4) --------------------------------------------------------

void HybridSystem::store(PeerIndex from, const std::string& key,
                         std::uint64_t value, StoreCallback done) {
  store_id(from, hash_key(key), key, value, std::move(done));
}

void HybridSystem::store_id(PeerIndex from, DataId id, const std::string& key,
                            std::uint64_t value, StoreCallback done) {
  sim::ComponentScope prof{sim_, sim::Component::kData};
  Peer& p = peer(from);
  proto::DataItem item{id, key, value, from};

  // When traced, the whole store becomes one span tree: the root closes
  // when the placement completes (done fires) or the upward path dies.
  stats::TraceContext st;
  if (spans() != nullptr) {
    st = spans()->start_trace("store", "store", from.value(), sim_.now());
    spans()->add_arg(st, "target", static_cast<std::int64_t>(id.value()));
    done = [this, st, done = std::move(done)] {
      if (spans() != nullptr) spans()->end_span(st, sim_.now());
      if (done) done();
    };
  }

  if (in_local_segment(p, id)) {
    // "If the d_id lies in the range of the current s-network, the data item
    // is inserted to its database" -- the generating peer keeps it.
    replicate_item(from, item);
    store_or_merge(p, std::move(item));
    if (params_.style == SNetworkStyle::kBitTorrent &&
        p.role == Role::kSPeer) {
      // Report to the tracker (the t-peer).
      const PeerIndex tracker = p.tpeer;
      net_.send(from, tracker, TrafficClass::kControl, proto::kControlBytes,
                [this, tracker, id, from] {
                  tracker_index_add(peer(tracker), id, from);
                });
    }
    if (done) done();
    return;
  }

  // Bypass shortcut (Section 5.4): a live link into the right s-network
  // skips the whole t-network trip.
  if (params_.bypass_links) {
    if (const BypassLink* bp = find_bypass(p, id); bp != nullptr) {
      const PeerIndex to = bp->to;
      net_.send(from, to, TrafficClass::kData, proto::kDataBytes, st,
                [this, to, id, item = std::move(item),
                 done = std::move(done)]() mutable {
                  // A stale link (segment moved since install) forwards on
                  // to the current owner instead of stranding the item.
                  insert_or_rehome(to, std::move(item));
                  if (params_.style == SNetworkStyle::kBitTorrent) {
                    const PeerIndex tracker = peer(to).tpeer;
                    tracker_index_add(peer(tracker), id, to);
                  }
                  if (done) done();
                });
      return;
    }
  }

  // Up the tree to the local t-peer, around the ring to the responsible
  // t-peer, then place.
  RouteRef r = new_route(RouteKind::kStore, id.value(), st);
  r->item = std::move(item);
  r->done = std::move(done);
  climb(r, from, 0);
}

// --- Routed requests ----------------------------------------------------------------
//
// A store, re-home or remote lookup climbs the cp chain to its t-peer and
// walks the ring to the key's owner.  Everything the hops share lives in one
// pooled Route record; a message carries a handle to it plus the hop's own
// position and counters, so forwarding allocates nothing per hop.

HybridSystem::RouteRef HybridSystem::new_route(RouteKind kind,
                                               std::uint64_t target,
                                               stats::TraceContext ctx) {
  RouteRef r = routes_.acquire();
  r->kind = kind;
  r->target = target;
  r->ctx = ctx;
  return r;
}

void HybridSystem::climb(const RouteRef& r, PeerIndex at, std::uint32_t hops) {
  Peer& p = peer(at);
  if (p.role == Role::kTPeer) {
    route_at_root(r, at, hops);
    return;
  }
  const PeerIndex next = p.cp != kNoPeer ? p.cp : p.tpeer;
  if (next == kNoPeer) {
    // Detached orphan: there is no upward path, so the request can never
    // reach the t-network.  Tell the requester now instead of going silent.
    net_.note_drop(at, proto::DropReason::kNoRoute, r->cls(), r->ctx);
    route_dead_end(*r);
    return;
  }
  auto deliver = [this, r, next, hops] {
    if (spans() != nullptr && r->ctx.valid()) {
      spans()->instant(r->ctx, "climb_hop", next.value(), sim_.now(), "hop",
                       hops + 1);
    }
    climb(r, next, hops + 1);
  };
  static_assert(proto::OverlayNetwork::Delivery::stores_inline<
                decltype(deliver)>);
  net_.send(at, next, r->cls(), r->bytes(), r->ctx, std::move(deliver));
}

void HybridSystem::route_at_root(const RouteRef& r, PeerIndex root,
                                 std::uint32_t hops) {
  switch (r->kind) {
    case RouteKind::kStore:
    case RouteKind::kRehome:
      route_ring(r, root, hops, 0);
      return;
    case RouteKind::kLookup: {
      auto it = queries_.find(r->qid);
      if (it == queries_.end() || it->second.finished) return;
      it->second.contacted += hops;  // cp-chain forwarders
      trace_stage(r->qid, "ring", "ring", root);
      r->ctx = query_trace(r->qid);
      route_ring(r, root, hops, 0);
      return;
    }
    case RouteKind::kTrackerLookup:
      bt_lookup(r->origin, r->qid, root, hops);
      return;
    case RouteKind::kKeywordRing: {
      const PeerIndex next = ring_view(peer(root)).successor.peer;
      if (next == kNoPeer || next == root) return;
      net_.send(root, next, TrafficClass::kQuery, proto::kQueryBytes,
                [this, next, root, qid = r->qid] {
                  keyword_ring_walk(next, root, qid);
                });
      return;
    }
  }
}

void HybridSystem::route_dead_end(Route& r) {
  switch (r.kind) {
    case RouteKind::kStore:
      // The store can never be placed.  Close the root so the trace
      // doesn't dangle open.
      if (spans() != nullptr && r.ctx.valid()) {
        spans()->add_arg(r.ctx, "no_route", 1);
        spans()->end_span(r.ctx, sim_.now());
      }
      return;
    case RouteKind::kRehome:
      // A misplaced copy beats a lost one; the next churn transfer gets
      // another chance to move it home.
      store_or_merge(peer(r.origin), std::move(r.item));
      return;
    case RouteKind::kLookup:
    case RouteKind::kTrackerLookup:
      fail_query_fast(r.qid);
      return;
    case RouteKind::kKeywordRing:
      return;
  }
}

void HybridSystem::route_ring(const RouteRef& r, PeerIndex at,
                              std::uint32_t hops, std::uint32_t contacted) {
  sim::ComponentScope prof{sim_, sim::Component::kRing};
  Peer& here = peer(at);
  if (!here.joined || here.role != Role::kTPeer) {
    // Mid-churn loss: the request reached a peer that left the ring.
    net_.note_drop(at, proto::DropReason::kNoRoute, r->cls(), r->ctx);
    return;
  }
  const RingState& ring_here = ring(here);
  if (ring::in_arc_open_closed(r->target, ring_here.predecessor.id.value(),
                               here.pid.value()) ||
      ring_here.successor.peer == at) {
    route_at_owner(*r, at, hops, contacted);
    return;
  }
  if (route_intercept(*r, at, hops)) return;  // surrogate answered
  ring_forward(r, at, hops, contacted, 0);
}

void HybridSystem::ring_forward(const RouteRef& r, PeerIndex at,
                                std::uint32_t hops, std::uint32_t contacted,
                                unsigned attempt) {
  sim::ComponentScope prof{sim_, sim::Component::kRing};
  const RingState& here = ring(peer(at));
  PeerIndex next = here.successor.peer;
  if (params_.t_routing == TRouting::kFinger) {
    const chord::Finger f = here.fingers.closest_preceding(r->target);
    if (f.node != kNoPeer && f.node != at) next = f.node;
  }
  if (next == kNoPeer) {
    net_.note_drop(at, proto::DropReason::kNoRoute, r->cls(), r->ctx);
    return;
  }
  auto deliver = [this, r, next, hops, contacted] {
    if (spans() != nullptr && r->ctx.valid()) {
      spans()->instant(r->ctx, "ring_hop", next.value(), sim_.now(), "hop",
                       hops + 1);
    }
    route_ring(r, next, hops + 1, contacted + 1);
  };
  static_assert(proto::OverlayNetwork::Delivery::stores_inline<
                decltype(deliver)>);
  // Retry: a hop is lost when it is never delivered -- lost in transit, or
  // its receiver dies while it is in flight.  After a conservative 2x hop
  // RTT plus backoff, re-resolve the next hop -- our successor pointer may
  // have been repaired to the crash heir meanwhile -- and forward again.
  // The transport schedules the retry only for a lost hop, so a delivered
  // one costs no event beyond its delivery.
  sim::SimTime deadline{};
  sim::Simulator::Action retry;
  if (params_.ring_retry_limit != 0 && attempt < params_.ring_retry_limit) {
    constexpr sim::Duration kRetryCap = sim::SimTime::seconds(4);
    sim::Duration backoff = params_.ring_retry_base;
    for (unsigned i = 0; i < attempt && backoff < kRetryCap; ++i) {
      backoff += backoff;
    }
    if (kRetryCap < backoff) backoff = kRetryCap;
    const sim::Duration hop = net_.hop_latency(at, next, r->bytes());
    deadline = sim_.now() + hop + hop + backoff;
    auto resend = [this, r, at, hops, contacted, attempt] {
      if (!net_.alive(at)) return;
      const Peer& h = peer(at);
      if (!h.joined || h.role != Role::kTPeer) return;
      ring_forward(r, at, hops, contacted, attempt + 1);
    };
    static_assert(sim::Simulator::Action::stores_inline<decltype(resend)>);
    retry = std::move(resend);
  }
  net_.send_watched(at, next, r->cls(), r->bytes(), r->ctx, std::move(deliver),
                    deadline, std::move(retry));
}

bool HybridSystem::route_intercept(const Route& r, PeerIndex at,
                                   std::uint32_t hops) {
  // Only caching lookups stop early: a surrogate t-peer on the path may
  // hold a cached copy (Section 7).
  if (r.kind != RouteKind::kLookup || !params_.enable_caching) return false;
  auto it = queries_.find(r.qid);
  if (it == queries_.end() || it->second.finished) return true;
  if (it->second.visited.insert(at.value())) ++it->second.contacted;
  return try_answer(at, r.qid, hops);
}

void HybridSystem::route_at_owner(Route& r, PeerIndex owner,
                                  std::uint32_t hops,
                                  std::uint32_t contacted) {
  switch (r.kind) {
    case RouteKind::kStore:
      place_item(owner, std::move(r.item), std::move(r.done));
      return;
    case RouteKind::kRehome:
      place_item(owner, std::move(r.item), {});
      return;
    case RouteKind::kLookup: {
      const std::uint64_t qid = r.qid;
      auto it = queries_.find(qid);
      if (it == queries_.end() || it->second.finished) return;
      it->second.contacted += contacted;
      if (it->second.visited.insert(owner.value())) {
        ++it->second.contacted;
      }
      if (params_.style == SNetworkStyle::kBitTorrent) {
        bt_lookup(it->second.origin, qid, owner, hops);
        return;
      }
      if (try_answer(owner, qid, hops)) return;
      trace_stage(qid, "flood", "flood", owner);
      search_snetwork(owner, kNoPeer, qid, params_.ttl, hops);
      // The remote flood can miss transiently (a holder mid re-attach after
      // churn); arm the same re-flood the local path gets.
      arm_reflood(qid, owner);
      return;
    }
    case RouteKind::kTrackerLookup:
    case RouteKind::kKeywordRing:
      return;  // these never enter the ring
  }
}

void HybridSystem::place_item(PeerIndex at, proto::DataItem item,
                              StoreCallback done) {
  Peer& t = peer(at);
  if (params_.style == SNetworkStyle::kBitTorrent) {
    // Tracker mode: spread to a random member, index at the tracker.
    const auto members = snetwork_members(at);
    const PeerIndex holder = members[rng_.index(members.size())];
    const DataId id = item.id;
    if (holder == at) {
      t.store.insert(std::move(item));
      tracker_index_add(t, id, at);
      if (done) done();
      return;
    }
    net_.send(at, holder, TrafficClass::kData, proto::kDataBytes,
              [this, holder, at, id, item = std::move(item),
               done = std::move(done)]() mutable {
                peer(holder).store.insert(std::move(item));
                net_.send(holder, at, TrafficClass::kControl,
                          proto::kControlBytes, [this, at, id, holder] {
                            tracker_index_add(peer(at), id, holder);
                          });
                if (done) done();
              });
    return;
  }
  if (params_.placement == PlacementScheme::kTPeerStores) {
    const PeerIndex origin = item.origin;
    // The responsible t-peer's copy is primary by definition; a stale
    // replica routed home regains primary status and re-fans out.
    if (replication_active()) item.replica = false;
    replicate_item(at, item);
    store_or_merge(t, std::move(item));
    if (params_.bypass_links) maybe_add_bypass(origin, at);
    if (done) done();
    return;
  }
  spread_item(at, std::move(item), std::move(done));
}

void HybridSystem::spread_item(PeerIndex at, proto::DataItem item,
                               StoreCallback done) {
  // Scheme 2 (Section 3.4): pick uniformly among self and the directly
  // connected downstream neighbours; repeat at the chosen peer.  Restricting
  // the walk to children guarantees termination at the leaves.
  Peer& p = peer(at);
  const std::size_t options = p.children.size() + 1;
  const std::size_t pick = rng_.index(options);
  if (pick == 0 || p.children.empty()) {
    const PeerIndex origin = item.origin;
    // Normally a local insert; if the segment split while the spread was in
    // flight, the item is forwarded on to the new owner instead.
    insert_or_rehome(at, std::move(item));
    if (params_.bypass_links && peer(origin).tpeer != p.tpeer) {
      maybe_add_bypass(origin, at);
    }
    if (done) done();
    return;
  }
  const PeerIndex next = p.children[pick - 1];
  net_.send(at, next, TrafficClass::kData, proto::kDataBytes,
            [this, next, item = std::move(item), done = std::move(done)]() mutable {
              spread_item(next, std::move(item), std::move(done));
            });
}

void HybridSystem::route_and_place(PeerIndex from, proto::DataItem item) {
  // The item rides in the route record; if the upward path is dead it stays
  // at `from` (route_dead_end).
  RouteRef r = new_route(RouteKind::kRehome, item.id.value(), {});
  r->origin = from;
  r->item = std::move(item);
  climb(r, from, 0);
}

void HybridSystem::insert_or_rehome(PeerIndex at, proto::DataItem item) {
  Peer& p = peer(at);
  // Tracker mode keeps items wherever the tracker indexed them; re-homing
  // would silently invalidate the index.  The receiver announces what it
  // now holds (leave handovers and segment transfers move items without
  // touching the index otherwise).
  if (params_.style == SNetworkStyle::kBitTorrent) {
    const DataId id = item.id;
    p.store.insert(std::move(item));
    if (params_.tracker_reannounce) {
      if (p.role == Role::kTPeer) {
        tracker_index_add(p, id, at);
      } else {
        tracker_announce(at, id);
      }
    }
    return;
  }
  // Segment unknown (root unresolved / mid-join): keep the item here rather
  // than bouncing it through a half-built topology.
  const PeerIndex root = p.tpeer;
  if (root == kNoPeer || !peer(root).joined) {
    store_or_merge(p, std::move(item));
    return;
  }
  if (in_local_segment(p, item.id)) {
    // A primary item arriving in its home segment (leave handover, segment
    // transfer on join, re-homing) re-establishes its replica set.
    replicate_item(at, item);
    store_or_merge(p, std::move(item));
    return;
  }
  route_and_place(at, std::move(item));
}

void HybridSystem::rehome_foreign_items(PeerIndex at) {
  Peer& p = peer(at);
  const PeerIndex root = p.tpeer;
  if (p.store.empty() || root == kNoPeer) return;
  const Peer& t = peer(root);
  if (!t.joined) return;
  // The local segment is (pred, pid]; its ring complement is (pid, pred].
  // extract_arc(a == a) would take everything, so a full-circle segment
  // (single t-peer ring) has no foreign items by definition.
  const PeerId pred_id = ring_view(t).predecessor.id;
  if (pred_id == t.pid) return;
  auto foreign = p.store.extract_arc(t.pid, pred_id);
  for (auto& item : foreign) {
    if (replication_active() && item.replica &&
        is_fallback_holder(at, item.id)) {
      // Designated successor fallback for a too-small neighbor segment: the
      // replica lives here on purpose; re-routing it home would ping-pong
      // against the sweep that pushes it right back.
      p.store.insert(std::move(item));
      continue;
    }
    // Primary items and stale replicas (their segment moved away) both
    // travel to the current owner -- a replica may be the last surviving
    // copy after a crash, so it is preserved, not dropped.
    route_and_place(at, std::move(item));
  }
}

// --- Bypass links (Section 5.4) ----------------------------------------------------

void HybridSystem::maybe_add_bypass(PeerIndex a, PeerIndex b) {
  sim::ComponentScope prof{sim_, sim::Component::kBypass};
  if (a == kNoPeer || b == kNoPeer || a == b) return;
  Peer& pa = peer(a);
  Peer& pb = peer(b);
  if (!pa.joined || !pb.joined) return;
  if (pa.tpeer == pb.tpeer) return;  // same s-network: pointless
  // Rule 1 (Section 5.4): the degree must stay bounded by delta.  We apply
  // the bound to the bypass budget itself -- counting bypass links against
  // the tree cap would leave interior peers permanently ineligible and
  // make the mechanism vacuous.  Expired links free their budget slot.
  prune_bypass(pa);
  prune_bypass(pb);
  const auto full = [this](const Peer& p) {
    return p.extras != nullptr && p.extras->bypass.size() >= params_.delta;
  };
  if (full(pa) || full(pb)) return;
  const sim::SimTime expiry = sim_.now() + params_.bypass_lifetime;
  ++bypass_installs_;
  auto install = [this, expiry](Peer& from, const Peer& to) {
    const Peer& remote_root = peer(to.tpeer);
    std::vector<BypassLink>& links = extras_of(from).bypass;
    for (BypassLink& l : links) {
      if (l.to == to.self) {
        l.expires = expiry;  // refresh
        return;
      }
    }
    links.push_back(BypassLink{to.self, ring_view(remote_root).predecessor.id,
                               remote_root.pid, expiry});
  };
  install(pa, pb);
  install(pb, pa);
}

void HybridSystem::prune_bypass(Peer& p) {
  if (p.extras == nullptr) return;
  std::erase_if(p.extras->bypass, [this](const BypassLink& l) {
    return sim::expired(l.expires, sim_.now()) || !net_.alive(l.to) ||
           !peer(l.to).joined;
  });
}

HybridSystem::BypassLink* HybridSystem::find_bypass(Peer& p, DataId id) {
  if (p.extras == nullptr) return nullptr;
  for (BypassLink& l : p.extras->bypass) {
    if (sim::expired(l.expires, sim_.now())) continue;
    if (!net_.alive(l.to) || !peer(l.to).joined) continue;
    if (ring::in_arc_open_closed(id.value(), l.segment_lo.value(),
                                 l.segment_hi.value())) {
      l.expires = sim_.now() + params_.bypass_lifetime;  // use refreshes
      ++bypass_uses_;
      return &l;
    }
  }
  return nullptr;
}

// --- Lookup (Section 3.4) ------------------------------------------------------------

void HybridSystem::lookup(PeerIndex from, const std::string& key,
                          LookupCallback done) {
  lookup_id(from, hash_key(key), std::move(done));
}

void HybridSystem::lookup_id(PeerIndex from, DataId id, LookupCallback done) {
  sim::ComponentScope prof{sim_, sim::Component::kData};
  const std::uint64_t qid = next_query_id_++;
  Query q;
  q.origin = from;
  q.target = id;
  q.started = sim_.now();
  q.done = std::move(done);
  q.timer = sim_.schedule_after(params_.lookup_timeout, [this, qid] {
    finish_query(qid, proto::LookupResult{});
  });
  queries_.emplace(qid, std::move(q));
  Query& query = queries_[qid];
  query.visited.insert(from.value());
  if (spans() != nullptr) {
    query.trace = spans()->start_trace("lookup", "lookup", from.value(),
                                       sim_.now());
    spans()->add_arg(query.trace, "qid",
                     static_cast<std::int64_t>(qid));
    spans()->add_arg(query.trace, "target",
                     static_cast<std::int64_t>(id.value()));
  }

  Peer& p = peer(from);
  // The requester's own database (and cache, when the Section 7 scheme is
  // on) is free to check.
  bool from_cache = false;
  if (const proto::DataItem* own = answer_source(p, id, from_cache);
      own != nullptr) {
    if (from_cache) ++cache_hits_;
    proto::LookupResult r;
    r.success = true;
    r.latency = sim::SimTime{};
    r.found_at = from;
    r.value = own->value;
    finish_query(qid, r);
    return;
  }

  if (in_local_segment(p, id)) {
    if (params_.style == SNetworkStyle::kBitTorrent) {
      // Ask the tracker directly.
      trace_stage(qid, "climb", "climb", from);
      RouteRef r =
          new_route(RouteKind::kTrackerLookup, id.value(), query_trace(qid));
      r->origin = from;
      r->qid = qid;
      climb(r, from, 0);
      return;
    }
    // Local search with the configured TTL.
    trace_stage(qid, "flood", "flood", from);
    search_snetwork(from, kNoPeer, qid, params_.ttl, 0);
    arm_reflood(qid, from);
    return;
  }

  // Cross-segment: bypass first, then the t-network.
  if (params_.bypass_links) {
    if (const BypassLink* bp = find_bypass(p, id); bp != nullptr) {
      const PeerIndex to = bp->to;
      trace_stage(qid, "bypass", "ring", from);
      net_.send(from, to, TrafficClass::kQuery, proto::kQueryBytes,
                query_trace(qid), [this, to, qid] {
                  auto it = queries_.find(qid);
                  if (it == queries_.end() || it->second.finished) return;
                  if (it->second.visited.insert(to.value())) {
                    ++it->second.contacted;
                  }
                  if (try_answer(to, qid, 1)) return;
                  // Not at the bypass peer itself: search its s-network.
                  trace_stage(qid, "flood", "flood", to);
                  search_snetwork(to, kNoPeer, qid, params_.ttl, 1);
                });
      return;
    }
  }
  start_remote_lookup(from, qid, id);
}

void HybridSystem::start_remote_lookup(PeerIndex origin, std::uint64_t qid,
                                       DataId id) {
  arm_reroute(qid, origin, id);
  trace_stage(qid, "climb", "climb", origin);
  RouteRef r = new_route(RouteKind::kLookup, id.value(), query_trace(qid));
  r->origin = origin;
  r->qid = qid;
  climb(r, origin, 0);
}

void HybridSystem::bt_lookup(PeerIndex /*origin*/, std::uint64_t qid,
                             PeerIndex tracker, std::uint32_t hops) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second.finished) return;
  Peer& t = peer(tracker);
  if (it->second.visited.insert(tracker.value())) {
    ++it->second.contacted;
  }
  if (try_answer(tracker, qid, hops)) return;
  if (t.ring == nullptr) return;  // no ring position, no index: a miss
  auto& index = t.ring->tracker_index;
  const auto holder_it = index.find(it->second.target);
  if (holder_it == index.end()) return;  // miss: timeout fires
  // The tracker hands the query to every announced holder it still
  // believes alive (its own heartbeats prune dead members; the liveness
  // check here mirrors prune_bypass).  The first holder with the item
  // answers; the rest find the query finished and drop it.  A single
  // stale entry therefore cannot fail a lookup while a live announced
  // copy exists -- the multi-peer download path of the swarm workload.
  std::vector<PeerIndex>& holders = holder_it->second;
  std::erase_if(holders, [this](PeerIndex h) {
    return !net_.alive(h) || !peer(h).joined;
  });
  if (holders.empty()) {
    index.erase(holder_it);
    return;  // every announced holder is gone: timeout fires
  }
  for (const PeerIndex holder : holders) {
    net_.send(tracker, holder, TrafficClass::kQuery, proto::kQueryBytes,
              [this, holder, qid, hops] {
                auto qit = queries_.find(qid);
                if (qit == queries_.end() || qit->second.finished) return;
                if (qit->second.visited.insert(holder.value())) {
                  ++qit->second.contacted;
                }
                try_answer(holder, qid, hops + 1);
              });
  }
}

// --- Tracker index maintenance (BitTorrent style) ----------------------------------

void HybridSystem::tracker_index_add(Peer& t, DataId id, PeerIndex holder) {
  if (t.ring == nullptr) return;  // handed over, or not promoted yet
  auto& holders = t.ring->tracker_index[id];
  if (std::find(holders.begin(), holders.end(), holder) == holders.end()) {
    holders.push_back(holder);
  }
}

void HybridSystem::tracker_index_prune(Peer& t, PeerIndex dead) {
  if (t.ring == nullptr) return;
  auto& index = t.ring->tracker_index;
  for (auto it = index.begin(); it != index.end();) {
    auto& holders = it->second;
    std::erase(holders, dead);
    it = holders.empty() ? index.erase(it) : std::next(it);
  }
}

void HybridSystem::tracker_announce(PeerIndex member, DataId id) {
  if (params_.style != SNetworkStyle::kBitTorrent ||
      !params_.tracker_reannounce) {
    return;
  }
  const Peer& m = peer(member);
  const PeerIndex root = m.tpeer;
  if (root == kNoPeer || root == member) return;
  net_.send(member, root, TrafficClass::kControl, proto::kControlBytes,
            [this, root, id, member] {
              Peer& t = peer(root);
              if (t.role != Role::kTPeer || !t.joined) return;
              tracker_index_add(t, id, member);
            });
}

void HybridSystem::tracker_reannounce_store(PeerIndex member) {
  if (params_.style != SNetworkStyle::kBitTorrent ||
      !params_.tracker_reannounce) {
    return;
  }
  Peer& m = peer(member);
  const PeerIndex root = m.tpeer;
  if (root == kNoPeer || m.store.empty()) return;
  if (root == member) {
    // A freshly promoted tracker indexes its own holdings locally.
    m.store.for_each([&](const proto::DataItem& item) {
      tracker_index_add(m, item.id, member);
    });
    return;
  }
  // One batched announce message carrying every stored id.
  std::vector<DataId> ids;
  m.store.for_each([&](const proto::DataItem& item) { ids.push_back(item.id); });
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  net_.send(member, root, TrafficClass::kControl, proto::kControlBytes,
            [this, root, member, ids = std::move(ids)] {
              Peer& t = peer(root);
              if (t.role != Role::kTPeer || !t.joined) return;
              for (const DataId id : ids) tracker_index_add(t, id, member);
            });
}

std::vector<PeerIndex> HybridSystem::tracker_holders(PeerIndex t,
                                                     DataId id) const {
  const auto& index = ring_view(peer(t)).tracker_index;
  const auto it = index.find(id);
  if (it == index.end()) return {};
  return it->second;
}

void HybridSystem::search_snetwork(PeerIndex at, PeerIndex from,
                                   std::uint64_t qid, unsigned ttl,
                                   std::uint32_t hops) {
  if (params_.s_search == SSearch::kFlood) {
    flood(at, from, qid, ttl, hops);
    return;
  }
  for (unsigned w = 0; w < params_.walkers; ++w) walk(at, qid, ttl, hops);
}

void HybridSystem::walk(PeerIndex at, std::uint64_t qid, unsigned ttl,
                        std::uint32_t hops) {
  sim::ComponentScope prof{sim_, sim::Component::kFlood};
  notify_flood_wave(at, ttl);
  if (ttl == 0) {
    net_.note_drop(at, proto::DropReason::kTtlExhausted, TrafficClass::kQuery,
                   query_trace(qid));
    return;
  }
  std::size_t degree = 0;
  for_each_link(peer(at), /*with_ring=*/false, [&](PeerIndex) { ++degree; });
  if (degree == 0) return;
  std::size_t pick = rng_.index(degree);
  PeerIndex next = kNoPeer;
  for_each_link(peer(at), /*with_ring=*/false,
                [&](PeerIndex n) { if (pick-- == 0) next = n; });
  net_.send(at, next, TrafficClass::kQuery, proto::kQueryBytes,
            query_trace(qid), [this, next, qid, ttl, hops] {
              auto it = queries_.find(qid);
              if (it == queries_.end() || it->second.finished) return;
              // Walkers revisit peers; only first visits count as contacts.
              if (it->second.visited.insert(next.value())) {
                ++it->second.contacted;
              }
              if (spans() != nullptr) {
                spans()->instant(query_trace(qid), "walk_hop", next.value(),
                                 sim_.now(), "depth", hops + 1);
              }
              if (try_answer(next, qid, hops + 1)) return;
              walk(next, qid, ttl - 1, hops + 1);
            });
}

void HybridSystem::flood(PeerIndex at, PeerIndex from, std::uint64_t qid,
                         unsigned ttl, std::uint32_t hops) {
  sim::ComponentScope prof{sim_, sim::Component::kFlood};
  notify_flood_wave(at, ttl);
  if (ttl == 0) {
    net_.note_drop(at, proto::DropReason::kTtlExhausted, TrafficClass::kQuery,
                   query_trace(qid));
    return;
  }
  const stats::TraceContext ctx = query_trace(qid);
  for_each_link(peer(at), /*with_ring=*/false, [&](PeerIndex n) {
    if (n == from) return;
    net_.send(at, n, TrafficClass::kQuery, proto::kQueryBytes, ctx,
              [this, n, at, qid, ttl, hops] {
                auto it = queries_.find(qid);
                if (it == queries_.end() || it->second.finished) return;
                // Mesh topologies can deliver duplicates; a tree cannot.
                if (!it->second.visited.insert(n.value())) return;
                ++it->second.contacted;
                maybe_ack(n, at);
                if (spans() != nullptr) {
                  spans()->instant(query_trace(qid), "flood_hop", n.value(),
                                   sim_.now(), "depth", hops + 1);
                }
                if (try_answer(n, qid, hops + 1)) return;
                flood(n, at, qid, ttl - 1, hops + 1);
              });
  });
}

const proto::DataItem* HybridSystem::answer_source(Peer& p, DataId id,
                                                   bool& from_cache) {
  from_cache = false;
  if (const proto::DataItem* item = p.store.find(id); item != nullptr) {
    return item;
  }
  if (!params_.enable_caching || p.extras == nullptr) return nullptr;
  const auto& cache = p.extras->cache;
  const auto it = cache.find(id);
  if (it != cache.end() && !sim::expired(it->second.expires, sim_.now())) {
    from_cache = true;
    return &it->second.item;
  }
  return nullptr;
}

void HybridSystem::cache_put(PeerIndex at, const proto::DataItem& item) {
  if (!params_.enable_caching || params_.cache_capacity == 0) return;
  Peer& p = peer(at);
  if (p.store.find(item.id) != nullptr) return;  // authoritative copy held
  PeerExtras& x = extras_of(p);
  if (const auto it = x.cache.find(item.id); it != x.cache.end()) {
    it->second.expires = sim_.now() + params_.cache_ttl;  // refresh
    return;
  }
  if (x.cache_fifo.size() >= params_.cache_capacity) {
    // Full: the newest id takes the oldest one's slot.
    DataId& oldest = x.cache_fifo[x.cache_oldest];
    x.cache.erase(oldest);
    oldest = item.id;
    x.cache_oldest = (x.cache_oldest + 1) % x.cache_fifo.size();
  } else {
    x.cache_fifo.push_back(item.id);
  }
  x.cache.emplace(item.id, PeerExtras::CacheEntry{
                               item, sim_.now() + params_.cache_ttl});
}

std::uint64_t HybridSystem::max_answers_served() const {
  std::uint64_t best = 0;
  for (const Peer& p : peers_) best = std::max(best, p.answers_served);
  return best;
}

bool HybridSystem::try_answer(PeerIndex at, std::uint64_t qid,
                              std::uint32_t hops) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second.finished) return false;
  Query& q = it->second;
  bool from_cache = false;
  const proto::DataItem* item = answer_source(peer(at), q.target, from_cache);
  if (item == nullptr) return false;
  ++peer(at).answers_served;
  if (from_cache) ++cache_hits_;
  // Read-repair: a hit on a non-primary replica means the owner lost (or
  // never received) its copy; restore it while the item is in hand.
  if (!from_cache) maybe_read_repair(at, *item);
  const PeerIndex origin = q.origin;
  if (spans() != nullptr && q.trace.valid()) {
    // The answer travelling home is its own stage: whatever stage found the
    // item (flood/ring) closes and "reply" runs until delivery.
    if (q.stage.valid()) spans()->end_span(q.stage, sim_.now());
    q.stage = spans()->begin_span(q.trace, "reply", "reply", at.value(),
                                  sim_.now());
  }
  net_.send(at, origin, TrafficClass::kData, proto::kDataBytes,
            query_trace(qid), [this, qid, at, hops, found = *item] {
              auto qit = queries_.find(qid);
              if (qit == queries_.end() || qit->second.finished) return;
              proto::LookupResult r;
              r.success = true;
              r.latency = sim_.now() - qit->second.started;
              r.request_hops = hops;
              r.peers_contacted = qit->second.contacted;
              r.found_at = at;
              r.value = found.value;
              // The requester now holds a copy of the popular item and can
              // serve future queries for it (Section 7 caching scheme).
              cache_put(qit->second.origin, found);
              if (params_.bypass_links &&
                  peer(qit->second.origin).tpeer != peer(at).tpeer) {
                maybe_add_bypass(qit->second.origin, at);
              }
              finish_query(qid, r);
            });
  return true;
}

std::uint64_t HybridSystem::start_keyword_query(PeerIndex from,
                                                const std::string& substring,
                                                sim::Duration collect_window,
                                                KeywordCallback done) {
  const std::uint64_t qid = next_query_id_++;
  KeywordQuery q;
  q.origin = from;
  q.substring = substring;
  q.done = std::move(done);
  q.visited.insert(from.value());
  q.timer = sim_.schedule_after(collect_window, [this, qid] {
    auto it = keyword_queries_.find(qid);
    if (it == keyword_queries_.end()) return;
    auto finished = std::move(it->second);
    keyword_queries_.erase(it);
    if (finished.done) finished.done(std::move(finished.result));
  });
  keyword_queries_.emplace(qid, std::move(q));

  // The requester's own matches are free.
  peer(from).store.for_each([&](const proto::DataItem& item) {
    if (item.key.find(substring) != std::string::npos) {
      keyword_queries_[qid].result.keys.push_back(item.key);
    }
  });
  return qid;
}

void HybridSystem::lookup_keyword(PeerIndex from,
                                  const std::string& substring,
                                  sim::Duration collect_window,
                                  KeywordCallback done) {
  sim::ComponentScope prof{sim_, sim::Component::kData};
  const std::uint64_t qid =
      start_keyword_query(from, substring, collect_window, std::move(done));
  keyword_flood(from, kNoPeer, qid, params_.ttl);
}

void HybridSystem::lookup_keyword_global(PeerIndex from,
                                         const std::string& substring,
                                         sim::Duration collect_window,
                                         KeywordCallback done) {
  sim::ComponentScope prof{sim_, sim::Component::kData};
  const std::uint64_t qid =
      start_keyword_query(from, substring, collect_window, std::move(done));
  // Local flood and ring circulation proceed concurrently (Section 3.1).
  keyword_flood(from, kNoPeer, qid, params_.ttl);
  const PeerIndex root = peer(from).tpeer;
  if (root == kNoPeer || !peer(root).joined) return;
  RouteRef r = new_route(RouteKind::kKeywordRing, 0, {});
  r->qid = qid;
  climb(r, from, 0);
}

void HybridSystem::keyword_ring_walk(PeerIndex at, PeerIndex stop_at,
                                     std::uint64_t qid) {
  sim::ComponentScope prof{sim_, sim::Component::kRing};
  auto it = keyword_queries_.find(qid);
  if (it == keyword_queries_.end()) return;
  KeywordQuery& q = it->second;
  const Peer& here = peer(at);
  if (!here.joined || here.role != Role::kTPeer) return;
  if (at == stop_at) return;  // full circle
  if (q.visited.insert(at.value())) {
    ++q.result.peers_contacted;
    // The t-peer contributes its own matches and floods its s-network.
    keyword_report(at, qid, q);
    keyword_flood(at, kNoPeer, qid, params_.ttl);
  }
  const PeerIndex next = ring_view(here).successor.peer;
  if (next == kNoPeer || next == at) return;
  net_.send(at, next, TrafficClass::kQuery, proto::kQueryBytes,
            [this, next, stop_at, qid] {
              keyword_ring_walk(next, stop_at, qid);
            });
}

void HybridSystem::keyword_flood(PeerIndex at, PeerIndex from,
                                 std::uint64_t qid, unsigned ttl) {
  sim::ComponentScope prof{sim_, sim::Component::kFlood};
  notify_flood_wave(at, ttl);
  if (ttl == 0) return;
  for_each_link(peer(at), /*with_ring=*/false, [&](PeerIndex n) {
    if (n == from) return;
    net_.send(at, n, TrafficClass::kQuery, proto::kQueryBytes,
              [this, n, at, qid, ttl] {
      auto it = keyword_queries_.find(qid);
      if (it == keyword_queries_.end()) return;
      KeywordQuery& q = it->second;
      if (!q.visited.insert(n.value())) return;
      ++q.result.peers_contacted;
      keyword_report(n, qid, q);
      keyword_flood(n, at, qid, ttl - 1);
    });
  });
}

void HybridSystem::keyword_report(PeerIndex at, std::uint64_t qid,
                                  const KeywordQuery& q) {
  std::vector<std::string> matches;
  peer(at).store.for_each([&](const proto::DataItem& item) {
    if (item.key.find(q.substring) != std::string::npos) {
      matches.push_back(item.key);
    }
  });
  if (matches.empty()) return;
  net_.send(at, q.origin, TrafficClass::kData, proto::kDataBytes,
            [this, qid, matches = std::move(matches)] {
              auto it = keyword_queries_.find(qid);
              if (it == keyword_queries_.end()) return;
              auto& keys = it->second.result.keys;
              keys.insert(keys.end(), matches.begin(), matches.end());
            });
}

void HybridSystem::fail_query_fast(std::uint64_t qid) {
  proto::LookupResult r;
  r.fast_fail = true;
  finish_query(qid, r);
}

void HybridSystem::arm_reflood(std::uint64_t qid, PeerIndex at) {
  if (!params_.reflood_on_timeout) return;
  sim_.schedule_after(
      sim::SimTime::micros(params_.lookup_timeout.as_micros() / 2),
      [this, qid, at] {
        auto it = queries_.find(qid);
        if (it == queries_.end() || it->second.finished ||
            it->second.reflooded) {
          return;
        }
        if (!net_.alive(at) || !peer(at).joined) return;
        it->second.reflooded = true;
        // Forget the first wave's footprint: the miss may be a peer that
        // (re-)attached behind an already-visited parent, and the dedup in
        // flood() would stop the new wave right there.  Re-contacted peers
        // count towards peers_contacted again, which is what re-contacting
        // them costs.
        it->second.visited.clear();
        it->second.visited.insert(at.value());
        search_snetwork(at, kNoPeer, qid, params_.ttl * 2, 0);
      });
}

void HybridSystem::arm_reroute(std::uint64_t qid, PeerIndex origin,
                               DataId id) {
  // End-to-end leg of the ring-retry hardening: the per-hop retry in
  // ring_forward only sees a hop that is never delivered.  A carrier that
  // crashes AFTER delivery takes the query with it and no hop notices, so
  // re-issue the whole climb + ring trip from the origin once, at half the
  // lookup timeout.
  if (params_.ring_retry_limit == 0) return;
  sim_.schedule_after(
      sim::SimTime::micros(params_.lookup_timeout.as_micros() / 2),
      [this, qid, origin, id] {
        auto it = queries_.find(qid);
        if (it == queries_.end() || it->second.finished ||
            it->second.rerouted) {
          return;
        }
        if (!net_.alive(origin) || !peer(origin).joined) return;
        it->second.rerouted = true;
        start_remote_lookup(origin, qid, id);
      });
}

void HybridSystem::trace_stage(std::uint64_t qid, const char* name,
                               const char* category, PeerIndex at) {
  if (spans() == nullptr) return;
  auto it = queries_.find(qid);
  if (it == queries_.end() || !it->second.trace.valid()) return;
  Query& q = it->second;
  if (q.stage.valid()) spans()->end_span(q.stage, sim_.now());
  q.stage = spans()->begin_span(q.trace, name, category, at.value(),
                                sim_.now());
}

stats::TraceContext HybridSystem::query_trace(std::uint64_t qid) const {
  if (spans() == nullptr) return {};
  const auto it = queries_.find(qid);
  if (it == queries_.end()) return {};
  return it->second.stage.valid() ? it->second.stage : it->second.trace;
}

void HybridSystem::finish_query(std::uint64_t qid,
                                proto::LookupResult result) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second.finished) return;
  Query& q = it->second;
  q.finished = true;
  sim_.cancel(q.timer);
  if (!result.success) result.peers_contacted = q.contacted;
  if (spans() != nullptr && q.trace.valid()) {
    if (q.stage.valid()) spans()->end_span(q.stage, sim_.now());
    spans()->add_arg(q.trace, "success", result.success ? 1 : 0);
    if (result.fast_fail) spans()->add_arg(q.trace, "fast_fail", 1);
    spans()->add_arg(q.trace, "contacted", result.peers_contacted);
    spans()->end_span(q.trace, sim_.now());
  }
  auto done = std::move(q.done);
  queries_.erase(it);
  if (done) done(result);
}

}  // namespace hp2p::hybrid
