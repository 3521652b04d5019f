#include "gnutella/gnutella.hpp"

#include <algorithm>
#include <cassert>

namespace hp2p::gnutella {

using proto::TrafficClass;

GnutellaNetwork::GnutellaNetwork(proto::OverlayNetwork& network,
                                 GnutellaParams params)
    : net_(network), sim_(network.simulator()), params_(params) {}

PeerIndex GnutellaNetwork::join(HostIndex host, Rng& rng) {
  const PeerIndex i = net_.add_peer(host);
  assert(i.value() == peers_.size());
  Peer p;
  p.self = i;
  peers_.push_back(std::move(p));

  // Link to up to neighbors_per_join distinct random alive peers.
  std::vector<PeerIndex> candidates;
  for (const Peer& other : peers_) {
    if (other.self != i && other.alive) candidates.push_back(other.self);
  }
  rng.shuffle(candidates);
  const std::size_t links =
      std::min<std::size_t>(params_.neighbors_per_join, candidates.size());
  for (std::size_t k = 0; k < links; ++k) {
    peers_[i.value()].neighbors.push_back(candidates[k]);
    peers_[candidates[k].value()].neighbors.push_back(i);
  }
  return i;
}

void GnutellaNetwork::leave(PeerIndex leaving) {
  Peer& p = peer(leaving);
  p.alive = false;
  for (PeerIndex n : p.neighbors) {
    auto& list = peer(n).neighbors;
    list.erase(std::remove(list.begin(), list.end(), leaving), list.end());
  }
  p.neighbors.clear();
  net_.set_alive(leaving, false);
}

void GnutellaNetwork::crash(PeerIndex crashing) {
  peer(crashing).alive = false;
  net_.set_alive(crashing, false);
  // Neighbors keep their stale links; the transport drops what they send.
}

void GnutellaNetwork::store(PeerIndex at, const std::string& key,
                            std::uint64_t value) {
  const DataId id = hash_key(key);
  peer(at).store.insert(proto::DataItem{id, key, value, at});
}

void GnutellaNetwork::lookup(PeerIndex from, const std::string& key,
                             LookupCallback done) {
  const std::uint64_t qid = next_query_id_++;
  Query q;
  q.origin = from;
  q.target = hash_key(key);
  q.started = sim_.now();
  q.done = std::move(done);
  q.timer = sim_.schedule_after(params_.lookup_timeout, [this, qid] {
    finish(qid, proto::LookupResult{});
  });
  if (spans() != nullptr) {
    q.trace = spans()->start_trace("lookup", "lookup", from.value(), sim_.now());
    spans()->add_arg(q.trace, "qid", static_cast<std::int64_t>(qid));
    spans()->add_arg(q.trace, "target",
                     static_cast<std::int64_t>(q.target.value()));
  }
  queries_.emplace(qid, std::move(q));

  // The origin checks its own database first (zero cost, not counted as a
  // contact), then launches the search.
  Peer& p = peer(from);
  p.seen_queries.insert(qid);
  if (p.store.find(queries_[qid].target) != nullptr) {
    proto::LookupResult r;
    r.success = true;
    r.latency = sim::SimTime{};
    r.found_at = from;
    finish(qid, r);
    return;
  }

  if (params_.search == SearchMode::kFlood) {
    flood_step(from, kNoPeer, qid, params_.ttl, 0);
  } else {
    for (unsigned w = 0; w < params_.walkers; ++w) {
      walk_step(from, qid, params_.ttl, 0, walk_rng_);
    }
  }
}

bool GnutellaNetwork::try_answer(PeerIndex at, std::uint64_t qid,
                                 std::uint32_t hops) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second.finished) return false;
  Query& q = it->second;
  const proto::DataItem* item = peer(at).store.find(q.target);
  if (item == nullptr) return false;
  // Hit: data travels straight back to the requester.
  const PeerIndex origin = q.origin;
  stats::TraceContext reply;
  if (spans() != nullptr && q.trace.valid()) {
    reply = spans()->begin_span(q.trace, "reply", "reply", at.value(),
                                sim_.now());
  }
  net_.send(at, origin, TrafficClass::kData, proto::kDataBytes,
            reply.valid() ? reply : q.trace, [this, qid, at, hops, reply] {
              if (spans() != nullptr && reply.valid()) {
                spans()->end_span(reply, sim_.now());
              }
              auto qit = queries_.find(qid);
              if (qit == queries_.end() || qit->second.finished) return;
              proto::LookupResult r;
              r.success = true;
              r.latency = sim_.now() - qit->second.started;
              r.request_hops = hops;
              r.peers_contacted = qit->second.contacted;
              r.found_at = at;
              finish(qid, r);
            });
  return true;
}

void GnutellaNetwork::flood_step(PeerIndex at, PeerIndex from_neighbor,
                                 std::uint64_t qid, unsigned ttl,
                                 std::uint32_t hops) {
  if (ttl == 0) {
    net_.note_drop(at, proto::DropReason::kTtlExhausted, TrafficClass::kQuery,
                   query_trace(qid));
    return;
  }
  const stats::TraceContext ctx = query_trace(qid);
  for (PeerIndex n : peer(at).neighbors) {
    if (n == from_neighbor) continue;
    net_.send(at, n, TrafficClass::kQuery, proto::kQueryBytes, ctx,
              [this, n, at, qid, ttl, hops] {
                auto it = queries_.find(qid);
                if (it == queries_.end() || it->second.finished) return;
                Peer& receiver = peer(n);
                // Duplicate suppression: a peer processes each query once.
                if (!receiver.seen_queries.insert(qid).second) return;
                ++it->second.contacted;
                if (spans() != nullptr) {
                  spans()->instant(it->second.trace, "flood_hop", n.value(),
                                   sim_.now(), "depth",
                                   static_cast<std::int64_t>(hops + 1));
                }
                if (try_answer(n, qid, hops + 1)) return;
                flood_step(n, at, qid, ttl - 1, hops + 1);
              });
  }
}

void GnutellaNetwork::walk_step(PeerIndex at, std::uint64_t qid, unsigned ttl,
                                std::uint32_t hops, Rng& rng) {
  if (ttl == 0) {
    net_.note_drop(at, proto::DropReason::kTtlExhausted, TrafficClass::kQuery,
                   query_trace(qid));
    return;
  }
  const auto& nbrs = peer(at).neighbors;
  if (nbrs.empty()) {
    net_.note_drop(at, proto::DropReason::kNoRoute, TrafficClass::kQuery,
                   query_trace(qid));
    return;
  }
  const PeerIndex next = nbrs[rng.index(nbrs.size())];
  net_.send(at, next, TrafficClass::kQuery, proto::kQueryBytes,
            query_trace(qid), [this, next, qid, ttl, hops] {
              auto it = queries_.find(qid);
              if (it == queries_.end() || it->second.finished) return;
              // Walkers may revisit peers; only first visits count as
              // contacts.
              if (peer(next).seen_queries.insert(qid).second) {
                ++it->second.contacted;
              }
              if (spans() != nullptr) {
                spans()->instant(it->second.trace, "walk_hop", next.value(),
                                 sim_.now(), "depth",
                                 static_cast<std::int64_t>(hops + 1));
              }
              if (try_answer(next, qid, hops + 1)) return;
              walk_step(next, qid, ttl - 1, hops + 1, walk_rng_);
            });
}

void GnutellaNetwork::finish(std::uint64_t qid, proto::LookupResult result) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second.finished) return;
  Query& q = it->second;
  q.finished = true;
  sim_.cancel(q.timer);
  if (!result.success) result.peers_contacted = q.contacted;
  if (spans() != nullptr && q.trace.valid()) {
    spans()->add_arg(q.trace, "success", result.success ? 1 : 0);
    spans()->add_arg(q.trace, "contacted",
                     static_cast<std::int64_t>(result.peers_contacted));
    spans()->end_span(q.trace, sim_.now());
  }
  auto done = std::move(q.done);
  queries_.erase(it);
  if (done) done(result);
}

bool GnutellaNetwork::overlay_connected() const {
  std::vector<PeerIndex> alive;
  for (const Peer& p : peers_) {
    if (p.alive) alive.push_back(p.self);
  }
  if (alive.empty()) return true;
  std::vector<bool> seen(peers_.size(), false);
  std::vector<PeerIndex> stack{alive.front()};
  seen[alive.front().value()] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const PeerIndex u = stack.back();
    stack.pop_back();
    for (PeerIndex n : peers_[u.value()].neighbors) {
      if (!seen[n.value()] && peers_[n.value()].alive) {
        seen[n.value()] = true;
        ++visited;
        stack.push_back(n);
      }
    }
  }
  return visited == alive.size();
}

unsigned GnutellaNetwork::bfs_radius(PeerIndex from) const {
  std::vector<int> dist(peers_.size(), -1);
  std::vector<PeerIndex> frontier{from};
  dist[from.value()] = 0;
  unsigned radius = 0;
  while (!frontier.empty()) {
    std::vector<PeerIndex> next;
    for (PeerIndex u : frontier) {
      for (PeerIndex n : peers_[u.value()].neighbors) {
        if (dist[n.value()] < 0 && peers_[n.value()].alive) {
          dist[n.value()] = dist[u.value()] + 1;
          radius = std::max(radius, static_cast<unsigned>(dist[n.value()]));
          next.push_back(n);
        }
      }
    }
    frontier = std::move(next);
  }
  return radius;
}

}  // namespace hp2p::gnutella
