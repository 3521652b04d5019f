// Chord finger table.
//
// Entry k points at the first peer whose id is >= own_id + 2^k (mod ring).
// Shared by the Chord baseline and the hybrid t-network's accelerated
// routing mode.
#pragma once

#include <array>

#include "common/ids.hpp"
#include "common/ring_math.hpp"

namespace hp2p::chord {

/// One finger: the peer currently believed to cover its start id
/// (FingerTable::start).
struct Finger {
  PeerIndex node = kNoPeer;
  PeerId node_id{};
};

/// Fixed-size finger table over the kRingBits-bit id space.
class FingerTable {
 public:
  FingerTable() = default;

  /// Empties the table for a node with ring id `own`.
  void init(PeerId own) {
    own_ = own;
    fingers_.fill(Finger{});
  }

  [[nodiscard]] static constexpr unsigned size() { return kRingBits; }
  [[nodiscard]] const Finger& entry(unsigned k) const { return fingers_[k]; }
  /// Start id of entry k: own id + 2^k.  Derived, so never stored.
  [[nodiscard]] std::uint64_t start(unsigned k) const {
    return ring::finger_start(own_.value(), k);
  }

  void set(unsigned k, PeerIndex node, PeerId node_id) {
    fingers_[k].node = node;
    fingers_[k].node_id = node_id;
  }

  /// Clears every entry pointing at `node` (it left or crashed).
  void evict(PeerIndex node) {
    for (auto& f : fingers_) {
      if (f.node == node) f.node = kNoPeer;
    }
  }

  /// Replaces every entry pointing at `from` with `to` -- the hybrid
  /// system's cheap "substitute the leaving t-peer with the new t-peer in
  /// the finger table" update (Section 3.2.1).
  void substitute(PeerIndex from, PeerIndex to, PeerId to_id) {
    for (auto& f : fingers_) {
      if (f.node == from) {
        f.node = to;
        f.node_id = to_id;
      }
    }
  }

  /// The finger that most closely precedes `target` clockwise from the
  /// owner; kNoPeer when no finger qualifies (caller falls back to the
  /// successor).
  [[nodiscard]] Finger closest_preceding(std::uint64_t target) const {
    for (unsigned k = kRingBits; k-- > 0;) {
      const Finger& f = fingers_[k];
      if (f.node == kNoPeer) continue;
      if (ring::in_arc_open_open(f.node_id.value(), own_.value(), target)) {
        return f;
      }
    }
    return Finger{};
  }

 private:
  PeerId own_{};
  std::array<Finger, kRingBits> fingers_{};
};

}  // namespace hp2p::chord
