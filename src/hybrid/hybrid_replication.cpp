// HybridSystem: segment-local replication and repair.
//
// Every stored item is kept on up to `replication_factor` holders inside its
// owning segment: the responsible t-peer (primary) plus replica holders
// chosen deterministically from its s-network, falling back to the successor
// t-peer when the s-network is too small.  Re-replication hooks into the
// churn paths (crash detection, promotion, leave handover, join segment
// transfer), a periodic anti-entropy sweep exchanges per-segment store
// digests along s-network edges, and lookups answered from a non-primary
// replica trigger read-repair at the owner.
//
// Everything here is gated on replication_active(): with r = 1 no message,
// rng draw, or timer differs from the unreplicated system.
#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "hybrid/hybrid_system.hpp"

namespace hp2p::hybrid {

using proto::TrafficClass;

std::vector<PeerIndex> HybridSystem::replica_set(DataId id) const {
  std::vector<PeerIndex> out;
  const PeerIndex owner = registry_owner(id.value());
  if (owner == kNoPeer) return out;
  const unsigned r = params_.replication_factor;
  out.reserve(r + 1);
  out.push_back(owner);
  if (r <= 1) return out;
  const std::span<const PeerIndex> seats = seats_of(owner, id);
  out.insert(out.end(), seats.begin(), seats.end());
  if (out.size() < r) {
    // S-network too small: the successor t-peer stands in as a fallback
    // holder so a lone t-peer's segment still survives its crash.
    const PeerIndex suc = fallback_successor(owner);
    if (suc != kNoPeer) out.push_back(suc);
  }
  return out;
}

bool HybridSystem::in_replica_set(PeerIndex member, DataId id,
                                  PeerIndex owner) const {
  if (owner == kNoPeer) return false;
  if (member == owner) return true;
  if (params_.replication_factor <= 1) return false;
  const std::span<const PeerIndex> seats = seats_of(owner, id);
  if (std::ranges::find(seats, member) != seats.end()) return true;
  // Fewer than r - 1 seats means every candidate is seated: only then does
  // the successor stand in.
  return seats.size() + 1 < params_.replication_factor &&
         member == fallback_successor(owner);
}

PeerIndex HybridSystem::fallback_successor(PeerIndex owner) const {
  const PeerIndex suc = ring_view(peer(owner)).successor.peer;
  if (suc == kNoPeer || suc == owner || !net_.alive(suc) ||
      !peer(suc).joined) {
    return kNoPeer;
  }
  return suc;
}

void HybridSystem::replica_candidates(PeerIndex owner,
                                      std::vector<PeerIndex>& out) const {
  out.clear();
  collect_snetwork(owner, out);
  std::erase_if(out, [this, owner](PeerIndex m) {
    return m == owner || !net_.alive(m) || !peer(m).joined;
  });
}

HybridSystem::CandidateMemo& HybridSystem::candidate_memo(
    PeerIndex owner) const {
  auto [it, fresh] = candidate_memo_.try_emplace(owner.value());
  CandidateMemo& memo = it->second;
  if (fresh || memo.tree_epoch != tree_epoch_ ||
      memo.net_epoch != net_.liveness_epoch()) {
    replica_candidates(owner, memo.list);
    memo.ranked.clear();
    memo.seats.clear();
    memo.tree_epoch = tree_epoch_;
    memo.net_epoch = net_.liveness_epoch();
  }
  return memo;
}

const std::vector<PeerIndex>& HybridSystem::candidates_of(
    PeerIndex owner) const {
  return candidate_memo(owner).list;
}

std::span<const PeerIndex> HybridSystem::seats_of(PeerIndex owner,
                                                  DataId id) const {
  assert(params_.replication_factor >= 2);
  CandidateMemo& memo = candidate_memo(owner);
  const std::size_t k =
      std::min<std::size_t>(params_.replication_factor - 1, memo.list.size());
  const auto at = std::ranges::lower_bound(memo.ranked, id, {},
                                           &CandidateMemo::Ranked::id);
  if (at != memo.ranked.end() && at->id == id) {
    return {memo.seats.data() + at->first, k};
  }
  const auto first = static_cast<std::uint32_t>(memo.seats.size());
  memo.ranked.insert(at, {id, first});
  memo.seats.resize(first + k);
  // The k lowest keys, lowest first: exactly the head of a full sort, since
  // no two candidates tie.
  std::partial_sort_copy(memo.list.begin(), memo.list.end(),
                         memo.seats.begin() + first, memo.seats.end(),
                         [id](PeerIndex a, PeerIndex b) {
                           return replica_key(id, a) < replica_key(id, b);
                         });
  return {memo.seats.data() + first, k};
}

bool HybridSystem::is_fallback_holder(PeerIndex at, DataId id) const {
  const Peer& p = peer(at);
  if (p.role != Role::kTPeer || !p.joined) return false;
  const PeerIndex owner = registry_owner(id.value());
  if (owner == kNoPeer || owner == at) return false;
  return ring_view(peer(owner)).successor.peer == at;
}

void HybridSystem::store_or_merge(Peer& p, proto::DataItem item) {
  if (replication_active()) {
    p.store.merge(std::move(item));
  } else {
    p.store.insert(std::move(item));
  }
}

void HybridSystem::replicate_item(PeerIndex at, const proto::DataItem& item) {
  if (!replication_active() || item.replica) return;
  sim::ComponentScope prof{sim_, sim::Component::kReplication};
  const PeerIndex owner = registry_owner(item.id.value());
  if (owner == kNoPeer) return;
  for (const PeerIndex m : replica_set(item.id)) {
    if (m == at || !net_.alive(m) || !peer(m).joined) continue;
    proto::DataItem copy = item;
    // The copy at the owner is the primary; everyone else holds replicas.
    copy.replica = (m != owner);
    ++replica_pushes_;
    net_.send(at, m, TrafficClass::kData, proto::kDataBytes,
              [this, m, copy = std::move(copy)]() mutable {
                if (!peer(m).joined) return;
                peer(m).store.merge(std::move(copy));
              });
  }
}

void HybridSystem::maybe_read_repair(PeerIndex at,
                                     const proto::DataItem& item) {
  if (!replication_active() || !item.replica) return;
  sim::ComponentScope prof{sim_, sim::Component::kReplication};
  const PeerIndex owner = registry_owner(item.id.value());
  if (owner == kNoPeer || owner == at) return;
  if (!net_.alive(owner) || !peer(owner).joined) return;
  proto::DataItem copy = item;
  copy.replica = false;  // restoring the primary
  net_.send(at, owner, TrafficClass::kData, proto::kDataBytes,
            [this, owner, copy = std::move(copy)]() mutable {
              if (!peer(owner).joined) return;
              if (peer(owner).store.merge(std::move(copy))) ++read_repairs_;
            });
}

void HybridSystem::trigger_re_replication(PeerIndex at) {
  if (!replication_active() || !params_.re_replicate_on_churn) return;
  sim::ComponentScope prof{sim_, sim::Component::kReplication};
  const Peer& p = peer(at);
  const PeerIndex root = p.role == Role::kTPeer ? at : p.tpeer;
  if (root == kNoPeer) return;
  // One hello interval of slack lets the membership repair that triggered
  // us (pointer adoption, re-parenting) land before the digest round.
  sim_.schedule_after(params_.hello_interval,
                      [this, root] { replication_sweep(root); });
}

void HybridSystem::replication_sweep(PeerIndex root) {
  if (!replication_active()) return;
  sim::ComponentScope prof{sim_, sim::Component::kReplication};
  Peer& t = peer(root);
  if (!net_.alive(root) || !t.joined || t.role != Role::kTPeer) return;
  auto digest = std::make_shared<const std::vector<DataId>>(
      t.store.ids_in_arc(ring_view(t).predecessor.id, t.pid));
  const auto digest_bytes = static_cast<std::uint32_t>(
      proto::kControlBytes + 8 * digest->size());
  const auto send_digest = [&](PeerIndex m) {
    net_.send(root, m, TrafficClass::kControl, digest_bytes,
              [this, m, root, digest] { sweep_at_member(m, root, digest); });
  };
  const std::vector<PeerIndex>& members = candidates_of(root);
  for (const PeerIndex m : members) send_digest(m);
  if (members.size() + 1 < params_.replication_factor) {
    const PeerIndex suc = fallback_successor(root);
    if (suc != kNoPeer) send_digest(suc);
  }
}

void HybridSystem::sweep_at_member(
    PeerIndex member, PeerIndex root,
    std::shared_ptr<const std::vector<DataId>> digest) {
  sim::ComponentScope prof{sim_, sim::Component::kReplication};
  Peer& m = peer(member);
  Peer& t = peer(root);
  if (!m.joined || !net_.alive(root) || !t.joined ||
      t.role != Role::kTPeer) {
    return;
  }
  const PeerId lo = ring_view(t).predecessor.id;
  const PeerId hi = t.pid;
  const auto in_digest = [&digest](DataId id) {
    return std::binary_search(digest->begin(), digest->end(), id);
  };

  // Direction 1: in-segment items the root lacks travel up.  The root is
  // the owner, so these restore the primary copy; the merge at the root
  // fans the item back out to the rest of its replica set.
  std::vector<proto::DataItem> push;
  m.store.for_each([&](const proto::DataItem& item) {
    if (!ring::in_arc_open_closed(item.id.value(), lo.value(), hi.value())) {
      return;
    }
    if (in_digest(item.id)) return;
    proto::DataItem copy = item;
    copy.replica = false;
    push.push_back(std::move(copy));
  });
  if (!push.empty()) {
    re_replication_pushes_ += push.size();
    net_.send(member, root, TrafficClass::kData,
              proto::kDataBytes * static_cast<std::uint32_t>(push.size()),
              [this, root, push = std::move(push)]() mutable {
                Peer& rt = peer(root);
                if (!rt.joined) return;
                for (auto& item : push) {
                  const proto::DataItem primary = item;
                  if (rt.store.merge(std::move(item))) {
                    ++anti_entropy_repairs_;
                    replicate_item(root, primary);
                  }
                }
              });
  }

  // Direction 2: digest ids this member should hold (it is in the replica
  // set, or it is the successor fallback) but doesn't travel down.
  std::vector<DataId> want;
  for (const DataId id : *digest) {
    if (m.store.contains(id)) continue;
    const PeerIndex owner = registry_owner(id.value());
    if (owner == kNoPeer) continue;
    if (in_replica_set(member, id, owner)) {
      want.push_back(id);
    }
  }
  if (want.empty()) return;
  const auto want_bytes = static_cast<std::uint32_t>(
      proto::kControlBytes + 8 * want.size());
  net_.send(member, root, TrafficClass::kControl, want_bytes,
            [this, member, root, want = std::move(want)] {
              Peer& rt = peer(root);
              if (!rt.joined || !net_.alive(member) || !peer(member).joined) {
                return;
              }
              std::vector<proto::DataItem> fill;
              for (const DataId id : want) {
                const proto::DataItem* item = rt.store.find(id);
                if (item == nullptr) continue;
                proto::DataItem copy = *item;
                copy.replica = true;
                fill.push_back(std::move(copy));
              }
              if (fill.empty()) return;
              re_replication_pushes_ += fill.size();
              net_.send(root, member, TrafficClass::kData,
                        proto::kDataBytes *
                            static_cast<std::uint32_t>(fill.size()),
                        [this, member, fill = std::move(fill)]() mutable {
                          Peer& mm = peer(member);
                          if (!mm.joined) return;
                          for (auto& item : fill) {
                            if (mm.store.merge(std::move(item))) {
                              ++anti_entropy_repairs_;
                            }
                          }
                        });
            });
}

}  // namespace hp2p::hybrid
