// White-box fault injection for OverlayAuditor and protocol tests.
//
// Each injector corrupts exactly one structural invariant, bypassing the
// protocol (it pokes HybridSystem internals directly via friendship), so
// tests can assert that the auditor catches the corruption and names it
// correctly -- and names *only* it.  A few probes expose private helpers
// for differential tests.  Test-only: never linked into benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hybrid/hybrid_system.hpp"

namespace hp2p::hybrid {

struct FaultInjector {
  /// Points t-peer `t`'s successor at `wrong` with a *consistent* id cache,
  /// so only ring_successor_symmetry trips (not ring_id_cache).
  static void corrupt_successor(HybridSystem& sys, PeerIndex t,
                                PeerIndex wrong) {
    sys.ring(sys.peer(t)).successor = sys.link_to(wrong);
  }

  /// Flips the low bit of the cached successor id; the pointer itself stays
  /// correct, so only ring_id_cache trips.
  static void corrupt_successor_id(HybridSystem& sys, PeerIndex t) {
    PeerId& id = sys.ring(sys.peer(t)).successor.id;
    id = PeerId{id.value() ^ 1};
  }

  /// Re-parents leaf s-peers of `parent`'s own s-network under `parent`
  /// until its tree degree exceeds `target_degree`.  Same-network moves
  /// keep pid inheritance and parent/child symmetry intact, so only
  /// tree_degree_cap trips.  Returns false when the network has too few
  /// movable leaves.
  static bool overcap_degree(HybridSystem& sys, PeerIndex parent,
                             unsigned target_degree) {
    auto& pp = sys.peer(parent);
    const PeerIndex root = pp.role == Role::kTPeer ? parent : pp.tpeer;
    for (PeerIndex m : sys.snetwork_members(root)) {
      if (sys.tree_degree(pp) > target_degree) break;
      auto& mm = sys.peer(m);
      if (m == parent || m == root || mm.cp == parent) continue;
      if (!mm.children.empty() || mm.cp == kNoPeer) continue;
      sys.drop_child(sys.peer(mm.cp), m);
      mm.cp = parent;
      sys.add_child(pp, m);
    }
    return sys.tree_degree(pp) > target_degree;
  }

  /// Moves one stored item from `holder` into `recipient`'s store (intended
  /// to be in a different s-network), tripping only data_misplaced.
  /// Returns false when `holder` has nothing to move.
  static bool misplace_item(HybridSystem& sys, PeerIndex holder,
                            PeerIndex recipient) {
    auto items = sys.peer(holder).store.extract_all();
    if (items.empty()) return false;
    sys.peer(recipient).store.insert(std::move(items.front()));
    for (std::size_t i = 1; i < items.size(); ++i) {
      sys.peer(holder).store.insert(std::move(items[i]));
    }
    return true;
  }

  /// Fully detaches an item-holding s-peer: removed from its parent's child
  /// list *and* cp cleared, so both symmetry directions stay consistent and
  /// only data_orphaned (strict) trips.  Returns false when `speer` has no
  /// parent or no items.
  static bool orphan_stored_item(HybridSystem& sys, PeerIndex speer) {
    auto& p = sys.peer(speer);
    if (p.cp == kNoPeer || p.store.empty()) return false;
    sys.drop_child(sys.peer(p.cp), speer);
    p.cp = kNoPeer;
    return true;
  }

  /// Removes `child` from its parent's child list while the child keeps its
  /// cp pointer -- the one-sided edge loss that trips only
  /// tree_parent_child_symmetry.  Returns false when `child` has no parent.
  static bool drop_tree_edge(HybridSystem& sys, PeerIndex child) {
    auto& c = sys.peer(child);
    if (c.cp == kNoPeer) return false;
    sys.drop_child(sys.peer(c.cp), child);
    return true;
  }

  /// Runs the tree half of a departure alone: `p` leaves its parent's child
  /// list and clears its own, and its children rejoin.  `p` stays joined.
  static void detach_from_tree(HybridSystem& sys, PeerIndex p) {
    sys.detach_from_tree(p, /*notify_children=*/true);
  }

  /// Appends `upper` to the child list of `lower`, a peer below it, closing
  /// the cycle upper -> ... -> lower -> upper that mid-churn races can leave
  /// in child lists.  cp pointers stay as they are.
  static void close_child_cycle(HybridSystem& sys, PeerIndex upper,
                                PeerIndex lower) {
    sys.add_child(sys.peer(lower), upper);
  }

  /// Swaps two leaf s-peers between their parents' child lists (cp and
  /// tpeer follow), so two s-networks trade one member each and keep their
  /// sizes.
  static void swap_leaves(HybridSystem& sys, PeerIndex a, PeerIndex b) {
    auto& pa = sys.peer(a);
    auto& pb = sys.peer(b);
    sys.drop_child(sys.peer(pa.cp), a);
    sys.drop_child(sys.peer(pb.cp), b);
    sys.add_child(sys.peer(pa.cp), b);
    sys.add_child(sys.peer(pb.cp), a);
    std::swap(pa.cp, pb.cp);
    std::swap(pa.tpeer, pb.tpeer);
  }

  /// Whether `p` holds a ring position (RingState) at all.
  static bool holds_ring(const HybridSystem& sys, PeerIndex p) {
    return sys.peer(p).ring != nullptr;
  }

  /// Whether `p` holds mesh, bypass or cache state (PeerExtras) at all.
  static bool holds_extras(const HybridSystem& sys, PeerIndex p) {
    return sys.peer(p).extras != nullptr;
  }

  /// How many neighbours `p` holds liveness stamps for.
  static std::size_t liveness_entries(const HybridSystem& sys, PeerIndex p) {
    return sys.peer(p).liveness.size();
  }

  /// Sets the tree-walk epoch, so a test can reach its wrap-around without
  /// 2^32 walks.  Walks stamp peers with the epoch they ran under; a value
  /// below some stamp still in place would skip those peers.
  static void set_walk_epoch(HybridSystem& sys, std::uint32_t epoch) {
    sys.visit_marks_.epoch = epoch;
  }

  /// The anti-entropy sweep's test of whether `member` is in
  /// replica_set(id), over the memoized seats of id's current owner.
  static bool sweep_in_replica_set(const HybridSystem& sys, PeerIndex member,
                                   DataId id) {
    return sys.in_replica_set(member, id, sys.registry_owner(id.value()));
  }

  /// The replication paths' memoized candidate list for `owner`, and a
  /// fresh s-network walk to check it against.
  static std::vector<PeerIndex> memo_candidates(const HybridSystem& sys,
                                                PeerIndex owner) {
    return sys.candidates_of(owner);
  }
  static std::vector<PeerIndex> fresh_candidates(const HybridSystem& sys,
                                                 PeerIndex owner) {
    std::vector<PeerIndex> out;
    sys.replica_candidates(owner, out);
    return out;
  }

  /// The tree-walk epoch the candidate memo is stamped with.
  static std::uint64_t tree_epoch(const HybridSystem& sys) {
    return sys.tree_epoch_;
  }

  /// replica_set(id) rebuilt without any memo: the owner, then a fresh
  /// walk of its candidates fully sorted by replica_key and cut to r - 1,
  /// then the successor fallback when fewer than r holders were found.
  static std::vector<PeerIndex> fresh_replica_set(const HybridSystem& sys,
                                                  DataId id) {
    const PeerIndex owner = sys.registry_owner(id.value());
    if (owner == kNoPeer) return {};
    const unsigned r = sys.params().replication_factor;
    if (r <= 1) return {owner};
    std::vector<PeerIndex> ranked = fresh_candidates(sys, owner);
    std::sort(ranked.begin(), ranked.end(), [id](PeerIndex a, PeerIndex b) {
      return HybridSystem::replica_key(id, a) <
             HybridSystem::replica_key(id, b);
    });
    std::vector<PeerIndex> out{owner};
    for (const PeerIndex m : ranked) {
      if (out.size() == r) break;
      out.push_back(m);
    }
    if (out.size() < r) {
      const PeerIndex suc = sys.fallback_successor(owner);
      if (suc != kNoPeer) out.push_back(suc);
    }
    return out;
  }

  /// Reports a flood wave with an out-of-bound TTL straight to the
  /// flood observers (as a rogue peer would), tripping only
  /// flood_ttl_bound.
  static void flood_with_ttl(HybridSystem& sys, PeerIndex at, unsigned ttl) {
    sys.notify_flood_wave(at, ttl);
  }
};

}  // namespace hp2p::hybrid
