// HybridSystem: construction, server logic, join/leave/crash protocols and
// failure detection (Sections 3.2, 3.3, 5.1, 5.2, 5.3).
#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "hybrid/hybrid_system.hpp"

namespace hp2p::hybrid {

using proto::TrafficClass;

const HybridSystem::RingState HybridSystem::kNoRing{};

HybridSystem::HybridSystem(proto::OverlayNetwork& network,
                           HybridParams params, HostIndex server_host,
                           Rng& rng)
    : net_(network), sim_(network.simulator()), params_(params), rng_(rng) {
  // The server occupies a transport endpoint so contacting it costs real
  // latency; it is not a peer of either overlay.
  server_ = net_.add_peer(server_host);
  // Callers run one peer per underlay host; growth past that still works.
  peers_.reserve(net_.underlay().num_hosts());
  Peer s;
  s.self = server_;
  s.host = server_host;
  s.is_server = true;
  peers_.push_back(std::move(s));

  if (params_.topology_aware) {
    // "Predetermined so that they are uniformly distributed around the
    // network" (Section 6): evenly spaced host indices.  Host blocks follow
    // domain order, so equal spacing spreads landmarks across domains.
    const std::uint32_t hosts = net_.underlay().num_hosts();
    const std::uint32_t n = std::max(1u, params_.num_landmarks);
    for (std::uint32_t k = 0; k < n; ++k) {
      landmarks_.push_back(HostIndex{(k * hosts) / n});
    }
  }
}

// --- Server logic -------------------------------------------------------------

Role HybridSystem::server_pick_role(HostIndex host) {
  double p_t = 1.0 - params_.ps;
  if (params_.capacity_aware_roles) {
    // Section 5.1: bias t-peer roles toward fast access links while keeping
    // the overall expected t-peer fraction at 1 - p_s (weights average 1).
    switch (net_.underlay().capacity(host)) {
      case net::CapacityClass::kLow:
        p_t *= 0.2;
        break;
      case net::CapacityClass::kMedium:
        p_t *= 1.0;
        break;
      case net::CapacityClass::kHigh:
        p_t *= 1.8;
        break;
    }
  }
  return rng_.chance(p_t) ? Role::kTPeer : Role::kSPeer;
}

PeerId HybridSystem::server_generate_pid() {
  return PeerId{rng_.uniform(0, kRingSize - 1)};
}

PeerIndex HybridSystem::server_random_tpeer() {
  if (registry_.empty()) return kNoPeer;
  auto it = registry_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng_.index(registry_.size())));
  return it->second;
}

void HybridSystem::registry_insert(PeerId pid, PeerIndex t) {
  auto it = registry_.find(pid.value());
  if (it != registry_.end()) {
    // Pid re-registration (promotion: the heir adopts the dead t-peer's
    // pid): retire the old holder's index entry first.
    snetwork_by_size_.erase({snetwork_size_of(it->second), pid.value()});
    registered_pid_of_.erase(it->second.value());
    it->second = t;
  } else {
    registry_.emplace(pid.value(), t);
  }
  registered_pid_of_[t.value()] = pid.value();
  snetwork_by_size_.insert({snetwork_size_of(t), pid.value()});
}

void HybridSystem::registry_erase(PeerId pid) {
  auto it = registry_.find(pid.value());
  if (it == registry_.end()) return;
  snetwork_by_size_.erase({snetwork_size_of(it->second), pid.value()});
  registered_pid_of_.erase(it->second.value());
  registry_.erase(it);
}

std::size_t HybridSystem::snetwork_size_of(PeerIndex t) const {
  const auto it = snetwork_size_.find(t.value());
  return it == snetwork_size_.end() ? 0 : it->second;
}

void HybridSystem::set_snetwork_size(PeerIndex t, std::size_t size) {
  const auto reg = registered_pid_of_.find(t.value());
  if (reg != registered_pid_of_.end()) {
    snetwork_by_size_.erase({snetwork_size_of(t), reg->second});
    snetwork_by_size_.insert({size, reg->second});
  }
  snetwork_size_[t.value()] = size;
}

void HybridSystem::erase_snetwork_size(PeerIndex t) {
  // A missing entry reads as size 0, so an erase while still registered
  // must park the index entry at 0 rather than drop it.
  const auto reg = registered_pid_of_.find(t.value());
  if (reg != registered_pid_of_.end()) {
    snetwork_by_size_.erase({snetwork_size_of(t), reg->second});
    snetwork_by_size_.insert({0, reg->second});
  }
  snetwork_size_.erase(t.value());
}

PeerIndex HybridSystem::registry_owner(std::uint64_t id) const {
  if (registry_.empty()) return kNoPeer;
  // Owner = first t-peer whose pid >= id (clockwise successor of the id).
  auto it = registry_.lower_bound(id);
  if (it == registry_.end()) it = registry_.begin();  // wrap
  return it->second;
}

std::uint64_t HybridSystem::coordinate_of(HostIndex host) const {
  // Landmark binning (Section 5.2).  The full distance-ordered permutation
  // of the paper's scheme makes nearly every host its own cluster at our
  // landmark counts (k! permutations), so we bin by the coarsest consistent
  // prefix: the nearest landmark.  More landmarks => finer clusters, which
  // preserves the paper's "more landmarks, lower latency" trend.
  std::size_t best = 0;
  std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    const std::int64_t d =
        net_.host_latency(host, landmarks_[i]).as_micros();
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

PeerIndex HybridSystem::server_pick_snetwork(PeerIndex joiner) {
  assert(!registry_.empty());
  const auto record = [this](PeerIndex t) {
    // The server counts assignments at assignment time so that a burst of
    // joins spreads out instead of piling onto one momentarily-small
    // s-network.
    set_snetwork_size(t, snetwork_size_of(t) + 1);
    return t;
  };
  if (params_.interest_based) {
    // Section 5.3: the first peer of an interest anchors it to the
    // s-network owning the interest's hash; later same-interest joiners
    // reuse the mapping, so an interest is never split across s-networks by
    // ring growth.
    const std::uint32_t interest = peer(joiner).interest;
    auto cached = interest_snetwork_.find(interest);
    if (cached != interest_snetwork_.end()) {
      const PeerIndex t = cached->second;
      if (peer(t).joined && net_.alive(t)) return record(t);
      // The anchor t-peer left; re-resolve (a promotion keeps the pid, so
      // registry_owner finds the heir).
      interest_snetwork_.erase(cached);
    }
    const std::uint64_t anchor = mix64(interest) & (kRingSize - 1);
    const PeerIndex t = registry_owner(anchor);
    interest_snetwork_[interest] = t;
    return record(t);
  }
  if (params_.topology_aware) {
    // Section 5.2: peers of one latency cluster share s-networks.  The
    // whole point is that the *t-peer too* sits inside the cluster --
    // otherwise every hop entering or leaving the tree still crosses the
    // network -- so prefer t-peers whose host bins to the same landmark,
    // round-robin among them for balance.
    const std::uint64_t cluster = coordinate_of(peer(joiner).host);
    std::vector<PeerIndex> same_cluster;
    for (const auto& [pid, t] : registry_) {
      if (coordinate_of(peer(t).host) == cluster) same_cluster.push_back(t);
    }
    std::size_t& cursor = assignment_cursor_[cluster];
    if (!same_cluster.empty()) {
      return record(same_cluster[cursor++ % same_cluster.size()]);
    }
    // No t-peer in this cluster: fall back to a stride-spaced round-robin
    // so the cluster at least stays together on a few s-networks.
    const std::size_t t_count = registry_.size();
    const std::size_t stride = std::max<std::size_t>(1, landmarks_.size());
    const std::size_t slot = (mix64(cluster) + cursor * stride) % t_count;
    ++cursor;
    auto it = registry_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(slot));
    return record(it->second);
  }
  // Default (Section 3.2.2): the s-network with the smallest size.  The
  // (size, pid) index makes this O(log N_t); its begin() is exactly what
  // the old pid-order scan chose (minimal size, lowest-pid tie-break).
  assert(!snetwork_by_size_.empty());
  const auto owner = registry_.find(snetwork_by_size_.begin()->second);
  assert(owner != registry_.end());
  return record(owner->second);
}

// --- Peer admission -----------------------------------------------------------

HybridSystem::JoinRef HybridSystem::new_join(PeerIndex joiner,
                                             std::uint32_t hops) {
  JoinRef j = joins_.acquire();
  j->joiner = joiner;
  j->hops = hops;
  j->started = sim_.now();
  return j;
}

PeerIndex HybridSystem::add_peer(HostIndex host, JoinCallback done) {
  const auto interest =
      static_cast<std::uint32_t>(rng_.index(params_.num_interests));
  JoinRef j = new_join(kNoPeer);
  j->done = std::move(done);
  return admit_peer(host, std::nullopt, interest, std::move(j));
}

PeerIndex HybridSystem::add_peer_with_role(HostIndex host, Role role,
                                           JoinCallback done) {
  return add_peer_with_interest(
      host, role,
      static_cast<std::uint32_t>(rng_.index(params_.num_interests)),
      std::move(done));
}

PeerIndex HybridSystem::add_peer_with_interest(HostIndex host, Role role,
                                               std::uint32_t interest,
                                               JoinCallback done) {
  JoinRef j = new_join(kNoPeer);
  j->done = std::move(done);
  return admit_peer(host, role, interest, std::move(j));
}

PeerIndex HybridSystem::admit_peer(HostIndex host, std::optional<Role> forced,
                                   std::uint32_t interest, JoinRef j) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  // Pre-register the endpoint; the request message then travels to the
  // server, which settles the role.
  const PeerIndex i = net_.add_peer(host);
  Peer p;
  p.self = i;
  p.host = host;
  p.role = forced.value_or(Role::kSPeer);
  p.interest = interest;
  peers_.push_back(std::move(p));
  j->joiner = i;

  net_.send(i, server_, TrafficClass::kControl, proto::kControlBytes,
            [this, host, forced, j = std::move(j)] {
              // Someone must seed the ring; past that a forced role stands
              // and the server picks the rest.
              const Role role = registry_.empty() ? Role::kTPeer
                                : forced          ? *forced
                                                  : server_pick_role(host);
              peer(j->joiner).role = role;
              if (role == Role::kTPeer) {
                start_tpeer_join(j);
              } else {
                start_speer_join(server_pick_snetwork(j->joiner), j);
              }
            });
  return i;
}

// --- T-peer join (Sections 3.2.1 and 3.3) ---------------------------------------

void HybridSystem::start_tpeer_join(const JoinRef& j) {
  const PeerIndex joiner = j->joiner;
  Peer& n = peer(joiner);
  n.pid = server_generate_pid();
  n.ring = std::make_unique<RingState>();
  n.ring->fingers.init(n.pid);
  n.tpeer = joiner;

  if (registry_.empty()) {
    // First node: a one-peer ring.
    n.ring->successor = link_to(joiner);
    n.ring->predecessor = link_to(joiner);
    registry_insert(n.pid, joiner);
    set_snetwork_size(joiner, 0);
    // Server informs the peer it is the seed (one reply message).
    net_.send(server_, joiner, TrafficClass::kControl, proto::kControlBytes,
              [this, j] {
                peer(j->joiner).joined = true;
                membership_changed();
                if (failure_detection_) heartbeat_tick(j->joiner);
                if (j->done) {
                  j->done(proto::JoinResult{sim_.now() - j->started, 1});
                }
              });
    return;
  }

  const PeerIndex bootstrap = server_random_tpeer();
  // Server replies with the bootstrap address; joiner sends the join
  // request to it; the request walks the ring.
  net_.send(server_, joiner, TrafficClass::kControl, proto::kControlBytes,
            [this, bootstrap, j] {
              net_.send(j->joiner, bootstrap, TrafficClass::kControl,
                        proto::kControlBytes, [this, bootstrap, j] {
                          j->hops = 1;
                          route_tjoin(bootstrap, j);
                        });
            });
}

void HybridSystem::route_tjoin(PeerIndex at, const JoinRef& j) {
  Peer& here = peer(at);
  if (!here.joined || here.role != Role::kTPeer) {
    // The walk hit a peer that just left; restart from the server's view.
    const PeerIndex retry = server_random_tpeer();
    if (retry == kNoPeer) return;
    net_.send(at, retry, TrafficClass::kControl, proto::kControlBytes,
              [this, retry, j] {
                ++j->hops;
                route_tjoin(retry, j);
              });
    return;
  }
  RingState& r = ring(here);
  const std::uint64_t target = peer(j->joiner).pid.value();
  // `at` is the insertion predecessor when the target lies in
  // (at, at.successor]; equality with the successor id is the conflict case
  // resolved inside the triangle.
  if (r.successor.peer == at ||
      ring::in_arc_open_closed(target, here.pid.value(),
                               r.successor.id.value())) {
    if (r.joining_mutex || here.leaving_mutex) {
      // Section 3.3: serialize -- queue behind the in-flight operation.
      r.pending_joins.push_back(j);
    } else {
      run_join_triangle(at, j);
    }
    return;
  }
  PeerIndex next = r.successor.peer;
  if (params_.t_routing == TRouting::kFinger) {
    const chord::Finger f = r.fingers.closest_preceding(target);
    if (f.node != kNoPeer && f.node != at) next = f.node;
  }
  net_.send(at, next, TrafficClass::kControl, proto::kControlBytes,
            [this, next, j] {
              ++j->hops;
              route_tjoin(next, j);
            });
}

void HybridSystem::run_join_triangle(PeerIndex pre, const JoinRef& j) {
  Peer& p = peer(pre);
  RingState& pr = ring(p);
  pr.joining_mutex = true;
  Peer& n = peer(j->joiner);

  // Id-conflict resolution (pre.check of Table 1): midpoint of the arc.
  if (n.pid == p.pid || n.pid == pr.successor.id) {
    n.pid = PeerId{ring::midpoint_cw(p.pid.value(), pr.successor.id.value())};
    ring(n).fingers.init(n.pid);
    if (n.pid == p.pid) {
      // Arc of size < 2: nowhere to insert; retry with a fresh random id.
      pr.joining_mutex = false;
      n.pid = server_generate_pid();
      ring(n).fingers.init(n.pid);
      route_tjoin(pre, j);
      return;
    }
  }

  const RingLink suc_link = pr.successor;
  const PeerIndex joiner = j->joiner;

  // Join triangle (Fig. 2): pre -> new (successor address), new -> suc
  // (adopt me as predecessor), suc -> pre (ack; pre flips its successor).
  net_.send(pre, joiner, TrafficClass::kControl, proto::kControlBytes,
            [this, pre, joiner, suc_link, j] {
    RingState& jr = ring(peer(joiner));
    jr.successor = suc_link;
    jr.predecessor = link_to(pre);
    const PeerIndex suc = suc_link.peer;
    net_.send(joiner, suc, TrafficClass::kControl, proto::kControlBytes,
              [this, pre, joiner, suc, j] {
      Peer& s = peer(suc);
      const PeerId old_pred_id = ring_view(s).predecessor.id;
      set_link(s, &RingState::predecessor, link_to(joiner));
      // Load transfer (suc.loadtransfer of Table 1): every member of suc's
      // s-network hands over items now owned by the joiner,
      // i.e. d_id in (old predecessor, joiner].
      const PeerId lo = old_pred_id;
      const PeerId hi = peer(joiner).pid;
      for (PeerIndex member : snetwork_members(suc)) {
        send_items(member, joiner, peer(member).store.extract_arc(lo, hi));
      }
      net_.send(suc, pre, TrafficClass::kControl, proto::kControlBytes,
                [this, pre, joiner, j] {
        Peer& pp = peer(pre);
        Peer& nn2 = peer(joiner);
        ring(pp).successor = link_to(joiner);
        nn2.joined = true;
        membership_changed();
        registry_insert(nn2.pid, joiner);
        set_snetwork_size(joiner, 0);
        if (failure_detection_) heartbeat_tick(joiner);
        // The joiner carved a segment out of its successor's: rebuild the
        // replica sets on both sides of the new boundary.
        trigger_re_replication(joiner);
        if (j->done) {
          j->done(proto::JoinResult{sim_.now() - j->started, j->hops});
        }
        ring(pp).joining_mutex = false;
        process_pending_joins(pre);
      });
    });
  });
}

void HybridSystem::process_pending_joins(PeerIndex pre) {
  Peer& p = peer(pre);
  const RingState& r = ring_view(p);
  if (r.joining_mutex || p.leaving_mutex || r.pending_joins.empty()) return;
  // Drain the whole queue, re-routing each request: a queued joiner may now
  // belong to a different arc (another peer was inserted meanwhile), and a
  // request that re-routes away must not strand the ones behind it.  A
  // request that still belongs here starts a triangle and the rest re-queue.
  const std::vector<JoinRef> drained = std::exchange(ring(p).pending_joins, {});
  for (const JoinRef& next : drained) route_tjoin(pre, next);
}

// --- S-peer join (Section 3.2.2) -------------------------------------------------

void HybridSystem::start_speer_join(PeerIndex target_tpeer, const JoinRef& j) {
  if (target_tpeer == kNoPeer) return;  // no s-network exists (ps misuse)
  // Server reply (t-peer address), then the join request enters the tree.
  net_.send(server_, j->joiner, TrafficClass::kControl, proto::kControlBytes,
            [this, target_tpeer, j] {
              net_.send(j->joiner, target_tpeer, TrafficClass::kControl,
                        proto::kControlBytes, [this, target_tpeer, j] {
                          j->hops = 1;
                          descend_sjoin(target_tpeer, j);
                        });
            });
}

unsigned HybridSystem::tree_degree(const Peer& p) const {
  // Tree links only: bypass links are soft state with their own budget
  // (see maybe_add_bypass) and must not starve child admission.
  unsigned deg = static_cast<unsigned>(p.children.size());
  if (p.cp != kNoPeer) ++deg;
  return deg;
}

bool HybridSystem::accepts_child(const Peer& p) const {
  if (params_.style == SNetworkStyle::kStar ||
      params_.style == SNetworkStyle::kBitTorrent) {
    // Star/tracker topologies: the t-peer takes everyone.
    return p.role == Role::kTPeer;
  }
  unsigned limit = params_.delta;
  if (params_.link_usage_connect) {
    // Section 5.1: accept while link usage (degree / capacity) stays low --
    // equivalently scale the degree cap with the capacity class.
    switch (net_.underlay().capacity(p.host)) {
      case net::CapacityClass::kLow:
        break;
      case net::CapacityClass::kMedium:
        limit *= 2;
        break;
      case net::CapacityClass::kHigh:
        limit *= 3;
        break;
    }
  }
  return tree_degree(p) < limit;
}

void HybridSystem::descend_sjoin(PeerIndex at, const JoinRef& j) {
  const PeerIndex joiner = j->joiner;
  Peer& here = peer(at);
  if (!here.joined && here.role != Role::kTPeer) {
    // Connect point vanished mid-join; restart from the server.
    start_speer_join(server_pick_snetwork(joiner), j);
    return;
  }
  const bool mesh = params_.style == SNetworkStyle::kMesh;
  if (!mesh && !accepts_child(here) && !here.children.empty()) {
    // Degree cap reached: pass the request down a random branch (FCFS per
    // Section 3.3 -- each message is processed atomically in the DES).
    const PeerIndex next = here.children[rng_.index(here.children.size())];
    net_.send(at, next, TrafficClass::kControl, proto::kControlBytes,
              [this, next, j] {
                ++j->hops;
                descend_sjoin(next, j);
              });
    return;
  }

  // Accepting below a node whose own upward chain passes through the
  // joiner would close a cp cycle: stale child links can route a rejoining
  // subtree head back into its own subtree mid-churn, and a cycle never
  // self-heals (every member keeps a live parent, so no orphan retry
  // fires).  Restart from the server instead.
  {
    PeerIndex cur = at;
    std::size_t steps = 0;
    while (cur != kNoPeer && steps++ <= peers_.size()) {
      if (cur == joiner) {
        start_speer_join(server_pick_snetwork(joiner), j);
        return;
      }
      const Peer& q = peer(cur);
      if (q.role == Role::kTPeer) break;
      cur = q.cp;
    }
  }

  // Accept here: `at` becomes the joiner's connect point.  A rejoin retry
  // can race an earlier acceptance that is still in flight; never record
  // the same child twice.
  if (std::ranges::find(here.children, joiner) == here.children.end()) {
    add_child(here, joiner);
  }
  const PeerIndex root = here.tpeer;
  net_.send(at, joiner, TrafficClass::kControl, proto::kControlBytes,
            [this, at, joiner, root, j] {
              Peer& n = peer(joiner);
              if (n.cp != kNoPeer && n.cp != at) {
                // A raced earlier acceptance registered us under another
                // parent; unhook that entry or the tree keeps two records
                // of one child.
                drop_child(peer(n.cp), joiner);
              }
              n.cp = at;
              n.tpeer = root;
              n.pid = peer(root).pid;  // s-peers share the t-peer's p_id
              n.joined = true;
              membership_changed();
              // A rejoining orphan may have been assigned a different
              // s-network than the one whose segment its items belong to;
              // send those back to their responsible t-peer.
              rehome_foreign_items(joiner);
              // Tracker mode: the (possibly new) root must learn what this
              // member holds -- after a tracker crash the heir starts with
              // an empty index and these announces rebuild it.
              tracker_reannounce_store(joiner);
              // A rejoining orphan brings its subtree along; everyone below
              // must learn the (possibly new) root.
              for (PeerIndex m : subtree_below(joiner)) {
                net_.send(joiner, m, TrafficClass::kControl,
                          proto::kControlBytes, [this, m, root] {
                            Peer& mm = peer(m);
                            mm.tpeer = root;
                            mm.pid = peer(root).pid;
                            rehome_foreign_items(m);
                            tracker_reannounce_store(m);
                          });
              }
              note_heard(joiner, at);
              note_heard(at, joiner);
              if (failure_detection_) heartbeat_tick(joiner);
              if (params_.style == SNetworkStyle::kMesh) {
                // Wire extra random in-network links.
                auto members = snetwork_members(root);
                rng_.shuffle(members);
                unsigned added = 0;
                for (PeerIndex m : members) {
                  if (added >= params_.mesh_links) break;
                  if (m == joiner || m == at) continue;
                  extras_of(peer(joiner)).mesh_links.push_back(m);
                  extras_of(peer(m)).mesh_links.push_back(joiner);
                  ++added;
                }
              }
              if (j->done) {
                j->done(proto::JoinResult{sim_.now() - j->started, j->hops});
              }
            });
}

// --- Leave / crash ---------------------------------------------------------------

void HybridSystem::leave(PeerIndex leaving) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  Peer& p = peer(leaving);
  if (!p.joined || p.is_server) return;
  if (p.role == Role::kTPeer) {
    tpeer_leave(leaving);
  } else {
    speer_leave(leaving);
  }
}

void HybridSystem::speer_leave(PeerIndex leaving) {
  Peer& p = peer(leaving);
  p.joined = false;
  membership_changed();
  // The leaver stays alive (but marked) until an heir acks the handoff;
  // the mark keeps the heartbeat orphan-retry from resurrecting it and
  // tells other leavers not to pick it as their heir.
  p.leaving_mutex = true;
  const PeerIndex root = p.tpeer;
  if (const std::size_t sz = snetwork_size_of(root); sz > 0) {
    set_snetwork_size(root, sz - 1);
  }

  // Transfer load to a neighbour (Section 3.2.2): prefer the connect point,
  // then children, then the root.  The heir list is fixed before the tree
  // links are torn down; the handoff walks it until a live heir acks.
  const HandoffRef h = handoffs_.acquire();
  h->leaver = leaving;
  if (p.cp != kNoPeer) h->heirs.push_back({p.cp});
  for (const PeerIndex c : p.children) h->heirs.push_back({c});
  if (root != kNoPeer) h->heirs.push_back({root});
  h->items = p.store.extract_all();
  detach_from_tree(leaving, /*notify_children=*/true);
  if (h->items.empty()) {
    net_.set_alive(leaving, false);
    return;
  }
  speer_leave_handoff(h, 0);
}

void HybridSystem::speer_leave_handoff(const HandoffRef& h, std::size_t next) {
  const PeerIndex leaving = h->leaver;
  // Skip candidates that are already gone (or themselves mid-leave: a heir
  // that is draining its own store would just re-hand our items again, and
  // one that dies before our transfer lands would lose them silently).
  while (next < h->heirs.size()) {
    const PeerIndex c = h->heirs[next].peer;
    if (c != kNoPeer && c != leaving && net_.alive(c) && peer(c).joined &&
        !peer(c).leaving_mutex) {
      break;
    }
    ++next;
  }
  if (next >= h->heirs.size()) {
    // Every neighbour is gone; nobody can take the load (same outcome as
    // crashing with it).
    net_.set_alive(leaving, false);
    return;
  }
  const PeerIndex heir = h->heirs[next].peer;
  const auto bytes =
      proto::kDataBytes * static_cast<std::uint32_t>(h->items.size());
  net_.send(leaving, heir, TrafficClass::kData, bytes,
            [this, heir, next, h] {
              // Delivered, but the heir may have started leaving while the
              // transfer was in flight; refuse so the watchdog re-hands.
              if (!peer(heir).joined || peer(heir).leaving_mutex) return;
              for (const auto& item : h->items) insert_or_rehome(heir, item);
              trigger_re_replication(heir);
              net_.send(heir, h->leaver, TrafficClass::kControl,
                        proto::kControlBytes, [this, next, h] {
                          h->heirs[next].acked = true;
                          net_.set_alive(h->leaver, false);
                        });
            });
  // Watchdog: delivery closures of dead receivers never run, so an unacked
  // transfer after a full round trip (plus slack) means the heir crashed
  // with the items in flight -- re-hand them to the next candidate.
  const sim::Duration wait = net_.hop_latency(leaving, heir, bytes) +
                             net_.hop_latency(heir, leaving,
                                              proto::kControlBytes) +
                             params_.ring_retry_base;
  sim_.schedule_after(wait, [this, next, h] {
    if (h->heirs[next].acked) return;
    speer_leave_handoff(h, next + 1);
  });
}

void HybridSystem::send_items(PeerIndex from, PeerIndex to,
                              std::vector<proto::DataItem> items) {
  if (items.empty()) return;
  net_.send(from, to, TrafficClass::kData,
            proto::kDataBytes * static_cast<std::uint32_t>(items.size()),
            [this, to, items = std::move(items)]() mutable {
              for (auto& item : items) insert_or_rehome(to, std::move(item));
            });
}

void HybridSystem::detach_from_tree(PeerIndex p_idx, bool notify_children) {
  Peer& p = peer(p_idx);
  if (p.cp != kNoPeer) {
    const PeerIndex parent = p.cp;
    net_.send(p_idx, parent, TrafficClass::kControl, proto::kControlBytes,
              [this, parent, p_idx] {
                drop_child(peer(parent), p_idx);
              });
  }
  if (notify_children) {
    for (PeerIndex child : p.children) {
      net_.send(p_idx, child, TrafficClass::kControl, proto::kControlBytes,
                [this, child] { rejoin_subtree(child); });
    }
  }
  if (p.extras != nullptr) {
    for (PeerIndex m : p.extras->mesh_links) {
      net_.send(p_idx, m, TrafficClass::kControl, proto::kControlBytes,
                [this, m, p_idx] {
                  if (Peer& pm = peer(m); pm.extras != nullptr) {
                    std::erase(pm.extras->mesh_links, p_idx);
                  }
                });
    }
  }
  clear_children(p);
  p.cp = kNoPeer;
  if (p.extras != nullptr) {
    p.extras->mesh_links.clear();
    p.extras->bypass.clear();
  }
}

void HybridSystem::rejoin_subtree(PeerIndex child) {
  Peer& c = peer(child);
  if (!c.joined || !net_.alive(child)) return;
  c.cp = kNoPeer;
  const PeerIndex root = c.tpeer;
  if (root == kNoPeer || !peer(root).joined || !net_.alive(root)) {
    // The whole s-network lost its root; fall back to the server.
    net_.send(child, server_, TrafficClass::kControl, proto::kControlBytes,
              [this, child, root] { server_handle_compete(child, root); });
    return;
  }
  // The subtree stays attached below `child`; only `child` finds a new
  // connect point, rejoining via the t-peer (Section 3.2.2).  The server's
  // assignment count is unchanged: the peer stays in the same s-network.
  net_.send(child, root, TrafficClass::kControl, proto::kControlBytes,
            [this, root, child] {
              peer(child).joined = false;  // re-enters via descend
              membership_changed();
              descend_sjoin(root, new_join(child, 1));
            });
}

void HybridSystem::tpeer_leave(PeerIndex leaving) {
  Peer& p = peer(leaving);
  if (ring_view(p).joining_mutex || !ring_view(p).pending_joins.empty()) {
    // Section 3.3: a leaving peer must first drain its join queue.
    p.leaving_mutex = true;  // refuse *new* joins while draining
    sim_.schedule_after(sim::SimTime::millis(10),
                        [this, leaving] {
                          peer(leaving).leaving_mutex = false;
                          process_pending_joins(leaving);
                          sim_.schedule_after(sim::SimTime::millis(50),
                                              [this, leaving] {
                                                tpeer_leave(leaving);
                                              });
                        });
    return;
  }
  p.leaving_mutex = true;

  // Pick uniformly at random among the live members (Table 1: "pick a
  // s-peer randomly").
  std::vector<PeerIndex> live;
  for (PeerIndex m : snetwork_members(leaving)) {
    if (m != leaving && peer(m).joined && net_.alive(m)) live.push_back(m);
  }
  const PeerIndex heir =
      live.empty() ? kNoPeer : live[rng_.index(live.size())];

  if (heir == kNoPeer) {
    ring_leave(leaving);
    return;
  }
  promote_speer(heir, leaving, /*with_data=*/true);
}

void HybridSystem::promote_speer(PeerIndex heir, PeerIndex old_t,
                                 bool with_data) {
  Peer& h = peer(heir);
  Peer& o = peer(old_t);

  // Heir steps out of its tree slot, keeping its own subtree.
  if (h.cp != kNoPeer) drop_child(peer(h.cp), heir);
  h.cp = kNoPeer;

  // Role transfer: pid and ring position (Section 3.2.1).  The heir
  // changes role without a joined flip, so the role census must be
  // invalidated here explicitly.
  h.role = Role::kTPeer;
  membership_changed();
  h.pid = o.pid;
  h.tpeer = heir;
  if (with_data) {
    // Graceful handover: the whole position -- links, fingers, join queue
    // and tracker index -- moves to the heir (the leaver's join mutex is
    // free: tpeer_leave waits for it).  The sweep clock starts afresh.
    h.ring = std::move(o.ring);
    ring(h).last_sweep = {};
  } else {
    if (h.ring == nullptr) h.ring = std::make_unique<RingState>();
    RingState& r = ring(h);
    if (o.joined) {
      // The slot's holder rejoined before this promotion landed: take
      // over its links and fingers as they stand.
      const RingState& from = ring_view(o);
      r.successor = from.successor;
      r.predecessor = from.predecessor;
      r.fingers = from.fingers;
    } else {
      // Crash replacement: ring neighbors come from the server registry.
      r.fingers.init(h.pid);
      auto it = registry_.find(h.pid.value());
      if (it != registry_.end()) {
        auto next = std::next(it) == registry_.end() ? registry_.begin()
                                                     : std::next(it);
        auto prev = it == registry_.begin() ? std::prev(registry_.end())
                                            : std::prev(it);
        r.successor = link_to(next->second);
        r.predecessor = link_to(prev->second);
      } else {
        r.successor = link_to(heir);
        r.predecessor = link_to(heir);
      }
    }
  }
  // Links to the old slot's holder now mean the heir.
  RingState& r = ring(h);
  if (r.successor.peer == old_t) r.successor.peer = heir;
  if (r.predecessor.peer == old_t) r.predecessor.peer = heir;

  // On a graceful handover the old root's remaining children re-parent onto
  // the heir.  After a crash the heir cannot read the dead peer's neighbor
  // list: the orphans discover the crash themselves and rejoin via the
  // server competition.
  if (with_data) {
    for (PeerIndex child : o.children) {
      if (child == heir) continue;
      add_child(h, child);
      net_.send(old_t, child, TrafficClass::kControl, proto::kControlBytes,
                [this, child, heir] { peer(child).cp = heir; });
    }
  }
  clear_children(o);

  // Ring neighbors adopt the heir.
  if (r.successor.peer != heir) {
    const PeerIndex suc = r.successor.peer;
    net_.send(heir, suc, TrafficClass::kControl, proto::kControlBytes,
              [this, suc, heir] {
                set_link(peer(suc), &RingState::predecessor, link_to(heir));
              });
  }
  if (r.predecessor.peer != heir) {
    const PeerIndex pre = r.predecessor.peer;
    net_.send(heir, pre, TrafficClass::kControl, proto::kControlBytes,
              [this, pre, heir] {
                set_link(peer(pre), &RingState::successor, link_to(heir));
              });
  }

  // Data load moves with the role on a graceful handover.
  if (with_data) {
    send_items(old_t, heir, o.store.extract_all());
    // Tracker entries naming the leaver are stale the moment it goes dark;
    // its items travel to the heir in the transfer above, so rewrite them.
    for (auto& [id, holders] : r.tracker_index) {
      bool has_heir = std::ranges::find(holders, heir) != holders.end();
      for (PeerIndex& holder : holders) {
        if (holder != old_t) continue;
        holder = heir;
        if (has_heir) holder = kNoPeer;  // already listed: mark for removal
        has_heir = true;
      }
      std::erase(holders, kNoPeer);
    }
  } else if (params_.style == SNetworkStyle::kBitTorrent) {
    // Crash replacement: the index died with the old tracker.  Seed the
    // rebuild with the heir's own holdings; the orphans contribute theirs
    // as they rejoin (tracker_reannounce_store on acceptance).
    tracker_reannounce_store(heir);
  }

  registry_insert(h.pid, heir);
  const std::size_t old_size = snetwork_size_of(old_t);
  set_snetwork_size(heir, old_size > 0 ? old_size - 1 : 0);
  erase_snetwork_size(old_t);
  broadcast_substitution(old_t, heir);

  // Everyone below the heir learns the new root (tpeer pointer refresh).
  for (PeerIndex m : subtree_below(heir)) {
    net_.send(heir, m, TrafficClass::kControl, proto::kControlBytes,
              [this, m, heir] {
                peer(m).tpeer = heir;
                tracker_reannounce_store(m);
              });
  }

  if (with_data) {
    o.joined = false;
    membership_changed();
    o.leaving_mutex = false;
    net_.set_alive(old_t, false);
  }
  if (failure_detection_) heartbeat_tick(heir);
  // The segment changed hands: re-establish its replica sets (the crash
  // path in particular promotes WITHOUT data, so the survivors' copies are
  // what restores the heir's store).
  trigger_re_replication(heir);
  process_pending_joins(heir);
}

void HybridSystem::ring_leave(PeerIndex leaving) {
  Peer& p = peer(leaving);
  const PeerIndex pre = ring_view(p).predecessor.peer;
  const PeerIndex suc = ring_view(p).successor.peer;
  registry_erase(p.pid);
  erase_snetwork_size(leaving);

  if (suc == leaving || registry_.empty()) {
    // Last t-peer: the system empties.
    p.joined = false;
    membership_changed();
    net_.set_alive(leaving, false);
    return;
  }

  // Leave triangle (Fig. 2): leaving -> pre (successor address),
  // pre -> suc (identity check), suc -> leaving (completion).
  net_.send(leaving, pre, TrafficClass::kControl, proto::kControlBytes,
            [this, leaving] { ring_leave_wait_pre(leaving); });
  broadcast_substitution(leaving, kNoPeer);
}

void HybridSystem::ring_leave_wait_pre(PeerIndex leaving) {
  // Section 3.3: a peer that is itself mid-join or mid-leave does not
  // accept leave requests, so the triangle defers.  Neighbours are resolved
  // afresh on every attempt: a concurrent leave may have rewired
  // `leaving`'s predecessor/successor while we waited.
  Peer& me = peer(leaving);
  const RingState& mr = ring_view(me);
  if (mr.successor.peer == leaving || registry_.empty()) {
    // Everyone else left while we waited: the ring collapses to us alone.
    me.joined = false;
    membership_changed();
    me.leaving_mutex = false;
    net_.set_alive(leaving, false);
    return;
  }
  const PeerIndex pre = mr.predecessor.peer;
  const Peer& pp = peer(pre);
  const RingState& pr = ring_view(pp);
  const bool mutual_leave_tiebreak =
      pp.leaving_mutex && pr.predecessor.peer == leaving &&
      pre.value() > leaving.value();
  if ((pr.joining_mutex || pp.leaving_mutex || !pp.joined) &&
      !mutual_leave_tiebreak) {
    sim_.schedule_after(sim::SimTime::millis(20),
                        [this, leaving] { ring_leave_wait_pre(leaving); });
    return;
  }
  ring_leave_step2(mr.predecessor, mr.successor, leaving);
}

void HybridSystem::ring_leave_step2(RingLink pre_link, RingLink suc_link,
                                    PeerIndex leaving) {
  const PeerIndex pre = pre_link.peer;
  const PeerIndex suc = suc_link.peer;
  set_link(peer(pre), &RingState::successor, suc_link);
  net_.send(pre, suc, TrafficClass::kControl, proto::kControlBytes,
            [this, suc, leaving, pre_link] {
    Peer& s = peer(suc);
    // Only flip when the leaving peer really is our predecessor.
    if (ring_view(s).predecessor.peer == leaving) {
      ring(s).predecessor = pre_link;
    }
    net_.send(suc, leaving, TrafficClass::kControl, proto::kControlBytes,
              [this, leaving, suc] {
                // loaddump(): everything to the successor, then go dark.
                Peer& lp = peer(leaving);
                send_items(leaving, suc, lp.store.extract_all());
                lp.joined = false;
                membership_changed();
                lp.leaving_mutex = false;
                net_.set_alive(leaving, false);
              });
  });
}

void HybridSystem::broadcast_substitution(PeerIndex old_t, PeerIndex new_t) {
  // The server pushes the substitution to every t-peer: with an s-peer
  // promoted in place, "other t-peers only need to substitute the leaving
  // t-peer with the new t-peer in the finger table" (Section 3.2.1).
  for (const auto& [pid, t] : registry_) {
    if (t == old_t || t == new_t) continue;
    net_.send(server_, t, TrafficClass::kControl, proto::kControlBytes,
              [this, t, old_t, new_t] {
                // A registered crash heir whose promotion is still in
                // flight holds nothing to substitute yet.
                if (peer(t).ring == nullptr) return;
                RingState& r = ring(peer(t));
                if (new_t != kNoPeer) {
                  r.fingers.substitute(old_t, new_t, peer(new_t).pid);
                  if (r.successor.peer == old_t) r.successor = link_to(new_t);
                  if (r.predecessor.peer == old_t) {
                    r.predecessor = link_to(new_t);
                  }
                } else {
                  r.fingers.evict(old_t);
                }
              });
  }
}

void HybridSystem::crash(PeerIndex crashing) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  Peer& p = peer(crashing);
  if (p.is_server) return;
  p.joined = false;
  membership_changed();
  net_.set_alive(crashing, false);
  // Nothing else happens here: the data is gone, neighbors find out via
  // HELLO timeouts (when failure detection runs), and the server replaces
  // crashed t-peers when orphans compete.
}

void HybridSystem::server_handle_compete(PeerIndex orphan,
                                         PeerIndex dead_tpeer) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  if (dead_tpeer == kNoPeer) return;
  if (!net_.alive(orphan) || !peer(orphan).joined) return;
  if (net_.alive(dead_tpeer) && peer(dead_tpeer).joined) {
    // False alarm (the server can reach the t-peer): the orphan simply
    // rejoins its own s-network.
    net_.send(server_, orphan, TrafficClass::kControl, proto::kControlBytes,
              [this, orphan] { rejoin_subtree(orphan); });
    return;
  }
  if (replaced_tpeers_.insert(dead_tpeer.value()).second) {
    // First competitor wins (the paper: random pick or smallest address --
    // message arrival order is our arrival-time tiebreak).
    registry_erase(peer(dead_tpeer).pid);
    registry_insert(peer(dead_tpeer).pid, orphan);  // heir takes the slot
    net_.send(server_, orphan, TrafficClass::kControl, proto::kControlBytes,
              [this, orphan, dead_tpeer] {
                detach_from_tree(orphan, /*notify_children=*/false);
                promote_speer(orphan, dead_tpeer, /*with_data=*/false);
              });
  } else {
    // Someone already replaced it; this orphan rejoins under the heir.
    const PeerIndex heir = registry_owner(peer(dead_tpeer).pid.value());
    if (heir == kNoPeer || heir == orphan) return;
    if (!net_.alive(heir) || !peer(heir).joined) {
      // Re-promotion race: the competition winner crashed before (or right
      // after) its promotion landed, so the registry points at a corpse.
      // Treat this orphan as a fresh competitor for the heir's slot; the
      // recursion terminates because replaced_tpeers_ only grows.
      server_handle_compete(orphan, heir);
      return;
    }
    net_.send(server_, orphan, TrafficClass::kControl, proto::kControlBytes,
              [this, orphan, heir] {
                Peer& o = peer(orphan);
                o.cp = kNoPeer;
                o.tpeer = heir;
                o.joined = false;
                membership_changed();
                descend_sjoin(heir, new_join(orphan, 1));
              });
  }
}

void HybridSystem::server_handle_ring_repair(PeerIndex dead) {
  if (net_.alive(dead) && peer(dead).joined) return;  // false alarm
  if (!replaced_tpeers_.insert(dead.value()).second) return;
  const PeerId dead_pid = peer(dead).pid;
  registry_erase(dead_pid);
  if (registry_.empty()) return;
  // Reconnect the dead peer's ring neighbors directly.
  const PeerIndex suc = registry_owner(dead_pid.value());
  auto it = registry_.lower_bound(dead_pid.value());
  auto prev = it == registry_.begin() ? std::prev(registry_.end())
                                      : std::prev(it);
  const PeerIndex pre = prev->second;
  if (pre == kNoPeer || suc == kNoPeer) return;
  net_.send(server_, pre, TrafficClass::kControl, proto::kControlBytes,
            [this, pre, suc] {
              set_link(peer(pre), &RingState::successor, link_to(suc));
            });
  net_.send(server_, suc, TrafficClass::kControl, proto::kControlBytes,
            [this, suc, pre] {
              set_link(peer(suc), &RingState::predecessor, link_to(pre));
            });
  broadcast_substitution(dead, kNoPeer);
}

void HybridSystem::server_refresh_ring_pointers(PeerIndex reporter,
                                                PeerIndex dead) {
  if (!net_.alive(reporter) || !peer(reporter).joined) return;
  const PeerId dead_pid = peer(dead).pid;
  if (registry_.empty()) return;
  // Who serves the dead peer's old position now?  If the slot was
  // re-registered (crash competition) both pointers go to the heir; if it
  // was erased (loner repair) the registry neighbors around the gap take
  // over.
  PeerIndex suc_fix = kNoPeer;
  PeerIndex pre_fix = kNoPeer;
  const auto exact = registry_.find(dead_pid.value());
  if (exact != registry_.end()) {
    suc_fix = exact->second;
    pre_fix = exact->second;
  } else {
    suc_fix = registry_owner(dead_pid.value());
    auto it = registry_.lower_bound(dead_pid.value());
    auto prev = it == registry_.begin() ? std::prev(registry_.end())
                                        : std::prev(it);
    pre_fix = prev->second;
  }
  if (suc_fix == kNoPeer || pre_fix == kNoPeer) return;
  if (!net_.alive(suc_fix) || !net_.alive(pre_fix)) return;
  net_.send(server_, reporter, TrafficClass::kControl, proto::kControlBytes,
            [this, reporter, dead, suc_fix, pre_fix] {
              Peer& r = peer(reporter);
              if (ring_view(r).successor.peer == dead) {
                ring(r).successor = link_to(suc_fix);
              }
              if (ring_view(r).predecessor.peer == dead) {
                ring(r).predecessor = link_to(pre_fix);
              }
            });
}

// --- Failure detection (Section 3.2.2) --------------------------------------------

void HybridSystem::start_failure_detection() {
  assert(!failure_detection_ && "failure detection starts once");
  failure_detection_ = true;  // from here on note_heard stamps
  for (Peer& p : peers_) {
    if (p.is_server || !p.joined) continue;
    heartbeat_tick(p.self);
  }
}

void HybridSystem::heartbeat_tick(PeerIndex p_idx) {
  Peer& entry = peer(p_idx);
  if (entry.heartbeat_running) return;  // one loop per peer
  entry.heartbeat_running = true;
  heartbeat_step(p_idx);
}

void HybridSystem::heartbeat_step(PeerIndex p_idx) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  Peer& p = peer(p_idx);
  if (!net_.alive(p_idx)) {
    p.heartbeat_running = false;
    return;
  }
  const sim::SimTime now = sim_.now();
  assert(!beat_links_open_ && "heartbeat scans never nest");
  beat_links_open_ = true;
  beat_links_.clear();
  for_each_link(p, /*with_ring=*/true,
                [this](PeerIndex n) { beat_links_.push_back(n); });
  for (const PeerIndex n : beat_links_) {
    Liveness& l = p.liveness[n.value()];
    if (l.heard == Liveness::kUnset) {
      l.heard = now;
    } else if (sim::expired(l.heard + params_.hello_timeout, now)) {
      on_neighbor_dead(p_idx, n);  // erases l
      continue;
    }
    // HELLO suppression: recent acknowledgment traffic substitutes for the
    // scheduled HELLO (the ack/suppress timers of Section 3.2.2).
    if (l.sent != Liveness::kUnset && now - l.sent < params_.hello_interval) {
      continue;
    }
    l.sent = now;
    net_.send(p_idx, n, TrafficClass::kHeartbeat, proto::kHeartbeatBytes,
              [this, n, p_idx] { note_heard(n, p_idx); });
  }
  beat_links_open_ = false;
  // Orphaned s-peer: a crashed parent (or a rejoin whose acceptance never
  // arrived) leaves cp == kNoPeer and nothing else will ever re-attach it.
  // Retry once per hello_timeout.
  if (p.role == Role::kSPeer && p.cp == kNoPeer && !p.leaving_mutex &&
      sim::expired(p.last_rejoin_attempt + params_.hello_timeout, now)) {
    p.last_rejoin_attempt = now;
    p.joined = true;  // a wedged half-rejoin left it unjoined; it is a member
    membership_changed();
    if (p.tpeer != kNoPeer) {
      rejoin_subtree(p_idx);
    } else {
      const PeerIndex target = server_pick_snetwork(p_idx);
      if (target != kNoPeer) start_speer_join(target, new_join(p_idx));
    }
  }
  // Churn can strand items outside their segment (route_and_place falls
  // back to a local insert when the upward path is dead); push them home
  // once per beat.  No-op while everything is placed correctly.
  rehome_foreign_items(p_idx);
  // Anti-entropy: each t-peer root periodically exchanges its in-segment
  // digest with the s-network so lost replicas are re-pushed.  Strictly
  // gated: at r = 1 this neither reads nor writes any state.
  if (replication_active() && p.role == Role::kTPeer &&
      params_.anti_entropy_period > sim::Duration{} &&
      sim::expired(ring(p).last_sweep + params_.anti_entropy_period, now)) {
    ring(p).last_sweep = now;
    replication_sweep(p_idx);
  }
  // Footprint for the verify/ explorer: a heartbeat scan reads and writes
  // only this peer's own records (liveness stamps, child/mesh lists,
  // ring pointers), so scans of distinct peers commute.  Messages it sends
  // are stamped by the transport with their own endpoint footprints.
  const sim::FootprintScope fps{sim_,
                                sim::Footprint::on({p_idx.value()})};
  sim_.schedule_after(params_.hello_interval,
                      [this, p_idx] { heartbeat_step(p_idx); });
}

void HybridSystem::note_heard(PeerIndex at, PeerIndex from) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  if (!failure_detection_) return;
  Peer& p = peer(at);
  p.liveness[from.value()].heard = sim_.now();
  if (at == from) return;
  Peer& f = peer(from);
  if (!p.joined || !f.joined || f.is_server || p.is_server) return;
  // State-only reconciliation against what the live sender claims.  Crash
  // storms can leave pointers dangling when an adoption message races the
  // heir's own crash; every HELLO is a chance to repair.  Both rules are
  // monotone -- an adoption either replaces a dead/self pointer or strictly
  // narrows the arc to the claimed neighbor -- so they converge and cannot
  // oscillate.
  if (p.role == Role::kTPeer && f.role == Role::kTPeer && f.pid != p.pid) {
    RingState& r = ring(p);
    const RingState& fr = ring_view(f);
    if (fr.successor.peer == at) {
      const PeerIndex pre = r.predecessor.peer;
      const bool pred_gone = pre == kNoPeer || pre == at ||
                             !net_.alive(pre) || !peer(pre).joined;
      if (pred_gone || ring::in_arc_open_open(f.pid.value(),
                                              r.predecessor.id.value(),
                                              p.pid.value())) {
        r.predecessor = link_to(from);
      }
    }
    if (fr.predecessor.peer == at) {
      const PeerIndex suc = r.successor.peer;
      const bool suc_gone = suc == kNoPeer || suc == at ||
                            !net_.alive(suc) || !peer(suc).joined;
      if (suc_gone || ring::in_arc_open_open(f.pid.value(), p.pid.value(),
                                             r.successor.id.value())) {
        r.successor = link_to(from);
      }
    }
  }
  if (f.role == Role::kSPeer && f.cp == at) {
    // Root identity flows down the tree.  A branch detached while a
    // promotion's relabel walk ran (and later re-attached through this
    // reconciliation) keeps a stale tpeer/pid for a dead former root, so
    // every HELLO re-derives the child's root from its parent -- one
    // level per beat, healing top-down from the live root.
    const PeerIndex root = p.role == Role::kTPeer ? at : p.tpeer;
    if (root != kNoPeer && root != f.tpeer && net_.alive(root) &&
        peer(root).joined && peer(root).role == Role::kTPeer) {
      f.tpeer = root;
      f.pid = peer(root).pid;
      rehome_foreign_items(from);
      tracker_reannounce_store(from);
    }
  }
  if (params_.child_readopt && f.role == Role::kSPeer && f.cp == at &&
      std::find(p.children.begin(), p.children.end(), from) ==
          p.children.end()) {
    // The sender believes we are its parent but our child record is gone
    // (a false-positive timeout erased it).  Take it back if the degree
    // budget still allows; otherwise cut it loose so the orphan-retry in
    // heartbeat_step finds it a proper slot.  Never take back our own
    // parent: crossed rejoins can make both sides claim the other as cp,
    // and re-adding would close a two-node cycle in the child lists.
    if (p.cp == from) {
      f.cp = kNoPeer;
    } else if (accepts_child(p)) {
      add_child(p, from);
    } else {
      f.cp = kNoPeer;
    }
  }
}

void HybridSystem::maybe_ack(PeerIndex at, PeerIndex to) {
  if (!failure_detection_) return;
  constexpr sim::Duration kAckSuppress = sim::SimTime::millis(500);
  Liveness& l = peer(at).liveness[to.value()];
  if (l.sent != Liveness::kUnset && sim_.now() - l.sent < kAckSuppress) return;
  l.sent = sim_.now();
  net_.send(at, to, TrafficClass::kHeartbeat, proto::kHeartbeatBytes,
            [this, to, at] { note_heard(to, at); });
}

void HybridSystem::on_neighbor_dead(PeerIndex at, PeerIndex dead) {
  sim::ComponentScope prof{sim_, sim::Component::kMembership};
  Peer& p = peer(at);
  p.liveness.erase(dead.value());

  // Whatever repair the branches below perform, the dead neighbor may have
  // held replicas for this segment; schedule a sweep once the membership
  // settles.
  trigger_re_replication(at);

  // Child died: forget it; its own children will rejoin by themselves.
  if (drop_child(p, dead)) {
    // A tracker also forgets what the dead member held: its data is gone,
    // and a stale index entry would only delay lookups into the timeout.
    if (p.role == Role::kTPeer &&
        params_.style == SNetworkStyle::kBitTorrent &&
        params_.tracker_reannounce) {
      tracker_index_prune(p, dead);
    }
    return;
  }
  if (p.extras != nullptr && std::erase(p.extras->mesh_links, dead) != 0) {
    return;
  }
  if (p.cp == dead) {
    p.cp = kNoPeer;
    if (dead == p.tpeer) {
      // Root crashed: compete at the server for the replacement.
      net_.send(at, server_, TrafficClass::kControl, proto::kControlBytes,
                [this, at, dead] { server_handle_compete(at, dead); });
    } else {
      rejoin_subtree(at);
    }
    return;
  }
  if (p.role == Role::kTPeer && (ring_view(p).successor.peer == dead ||
                                 ring_view(p).predecessor.peer == dead)) {
    // Ring neighbor crashed.  If it had an s-network, its orphans will
    // replace it; a loner t-peer needs server-side ring repair.
    net_.send(at, server_, TrafficClass::kControl, proto::kControlBytes,
              [this, at, dead] {
                if (replaced_tpeers_.count(dead.value()) != 0) {
                  // Slot already handled; the reporter's pointer may still
                  // dangle if the heir's adoption message raced its crash
                  // detection, so re-point it from the registry.
                  server_refresh_ring_pointers(at, dead);
                  return;
                }
                const bool has_orphans =
                    std::ranges::any_of(peers_, [&](const Peer& q) {
                      return !q.is_server && q.joined && net_.alive(q.self) &&
                             q.tpeer == dead;
                    });
                if (!has_orphans) server_handle_ring_repair(dead);
              });
  }
}

// --- Introspection ------------------------------------------------------------------

void HybridSystem::refresh_role_counts() const {
  if (!role_counts_dirty_) return;
  std::size_t t = 0;
  std::size_t s = 0;
  for (const Peer& p : peers_) {
    if (p.is_server || !p.joined) continue;
    t += (p.role == Role::kTPeer);
    s += (p.role == Role::kSPeer);
  }
  tpeer_count_ = t;
  speer_count_ = s;
  role_counts_dirty_ = false;
}

std::size_t HybridSystem::num_tpeers() const {
  refresh_role_counts();
  return tpeer_count_;
}

std::size_t HybridSystem::num_speers() const {
  refresh_role_counts();
  return speer_count_;
}

std::pair<PeerId, PeerId> HybridSystem::segment_of(PeerIndex t) const {
  const Peer& p = peer(t);
  return {ring_view(p).predecessor.id, p.pid};
}

std::vector<PeerIndex> HybridSystem::snetwork_members(PeerIndex t) const {
  std::vector<PeerIndex> out;
  collect_snetwork(t, out);
  return out;
}

HybridSystem::Walk::Walk(VisitMarks& marks, std::size_t num_peers)
    : marks_(marks) {
  assert(!marks_.open && "tree walks never nest");
  marks_.open = true;
  if (marks_.stamp.size() < num_peers) marks_.stamp.resize(num_peers, 0);
  if (++marks_.epoch == 0) {
    // Wrapped: stale stamps could now equal the fresh epoch.
    std::fill(marks_.stamp.begin(), marks_.stamp.end(), 0);
    marks_.epoch = 1;
  }
}

void HybridSystem::collect_snetwork(PeerIndex t,
                                    std::vector<PeerIndex>& out) const {
  Walk walk = begin_walk();
  walk.first_visit(t);
  std::vector<PeerIndex>& frontier = visit_marks_.frontier;
  frontier.assign(1, t);
  while (!frontier.empty()) {
    const PeerIndex m = frontier.back();
    frontier.pop_back();
    out.push_back(m);
    for (PeerIndex c : peer(m).children) {
      if (net_.alive(c) && walk.first_visit(c)) frontier.push_back(c);
    }
  }
}

std::vector<PeerIndex> HybridSystem::subtree_below(PeerIndex top) const {
  // Marking at enqueue visits peers in the order a level-by-level sweep
  // that skips revisits would.
  std::vector<PeerIndex> out;
  Walk walk = begin_walk();
  walk.first_visit(top);
  for (PeerIndex c : peer(top).children) {
    if (walk.first_visit(c)) out.push_back(c);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (PeerIndex c : peer(out[i]).children) {
      if (walk.first_visit(c)) out.push_back(c);
    }
  }
  return out;
}

bool HybridSystem::verify_ring() const {
  std::vector<PeerIndex> tpeers;
  for (const Peer& p : peers_) {
    if (!p.is_server && p.joined && p.role == Role::kTPeer &&
        net_.alive(p.self)) {
      tpeers.push_back(p.self);
    }
  }
  if (tpeers.empty()) return true;
  // Walk successors from any t-peer; must cycle through all of them.
  const PeerIndex start = tpeers.front();
  PeerIndex at = start;
  std::size_t seen = 0;
  do {
    const Peer& p = peer(at);
    if (!p.joined) return false;
    const PeerIndex suc = ring_view(p).successor.peer;
    if (ring_view(peer(suc)).predecessor.peer != at) return false;
    at = suc;
    if (++seen > tpeers.size()) return false;
  } while (at != start);
  return seen == tpeers.size();
}

bool HybridSystem::verify_trees() const {
  for (const Peer& p : peers_) {
    if (p.is_server || !p.joined || !net_.alive(p.self)) continue;
    // Parent/child pointer agreement.
    for (PeerIndex c : p.children) {
      if (peer(c).joined && net_.alive(c) && peer(c).cp != p.self) {
        return false;
      }
    }
    if (p.role == Role::kSPeer) {
      if (p.cp == kNoPeer) return false;
      const auto& kids = peer(p.cp).children;
      if (std::find(kids.begin(), kids.end(), p.self) == kids.end()) {
        return false;
      }
      // cp chain must reach the t-peer.
      PeerIndex walk = p.self;
      std::size_t steps = 0;
      while (peer(walk).role == Role::kSPeer) {
        walk = peer(walk).cp;
        if (walk == kNoPeer || ++steps > peers_.size()) return false;
      }
      if (walk != p.tpeer) return false;
    }
  }
  return true;
}

std::size_t HybridSystem::total_items() const {
  std::size_t n = 0;
  for (const Peer& p : peers_) {
    if (!p.is_server && p.joined && net_.alive(p.self)) n += p.store.size();
  }
  return n;
}

std::vector<std::size_t> HybridSystem::items_per_peer() const {
  std::vector<std::size_t> out;
  for (const Peer& p : peers_) {
    if (!p.is_server && p.joined && net_.alive(p.self)) {
      out.push_back(p.store.size());
    }
  }
  return out;
}

const std::vector<PeerIndex>& HybridSystem::live_peers() const {
  // The workload generators call this once per operation; rebuilding the
  // O(N) snapshot each time dominated whole runs past ~20k peers (80% of
  // CPU at 100k).  `joined` flips mark the cache dirty at each mutation
  // site; crash/leave liveness flips are caught via the transport epoch.
  if (live_peers_dirty_ || live_peers_net_epoch_ != net_.liveness_epoch()) {
    live_peers_cache_.clear();
    for (const Peer& p : peers_) {
      if (!p.is_server && p.joined && net_.alive(p.self)) {
        live_peers_cache_.push_back(p.self);
      }
    }
    live_peers_dirty_ = false;
    live_peers_net_epoch_ = net_.liveness_epoch();
  }
  return live_peers_cache_;
}

std::size_t HybridSystem::num_bypass_links() const {
  std::size_t n = 0;
  for (const Peer& p : peers_) {
    if (p.extras != nullptr) n += p.extras->bypass.size();
  }
  return n;
}

void HybridSystem::refresh_all_fingers() {
  sim::ComponentScope prof{sim_, sim::Component::kRing};
  for (const auto& [pid, t] : registry_) {
    Peer& p = peer(t);
    // A registered crash heir still waiting for its promotion has no table.
    if (!p.joined || p.ring == nullptr) continue;
    chord::FingerTable& fingers = ring(p).fingers;
    for (unsigned k = 0; k < chord::FingerTable::size(); ++k) {
      const PeerIndex owner =
          registry_owner(ring::finger_start(p.pid.value(), k));
      if (owner != kNoPeer) fingers.set(k, owner, peer(owner).pid);
    }
  }
}

}  // namespace hp2p::hybrid
