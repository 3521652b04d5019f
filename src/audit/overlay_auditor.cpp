#include "audit/overlay_auditor.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/ring_math.hpp"
#include "net/underlay.hpp"

namespace hp2p::audit {

using hybrid::Role;
using hybrid::SNetworkStyle;

namespace {

std::string peer_str(PeerIndex p) {
  return p == kNoPeer ? "none" : std::to_string(p.value());
}

}  // namespace

stats::JsonValue Violation::to_json() const {
  stats::JsonValue v = stats::JsonValue::object();
  v.set("invariant", stats::JsonValue{std::string{invariant}});
  v.set("peer", stats::JsonValue{static_cast<std::uint64_t>(peer.value())});
  v.set("expected", stats::JsonValue{expected});
  v.set("actual", stats::JsonValue{actual});
  if (!detail.empty()) v.set("detail", stats::JsonValue{detail});
  return v;
}

bool AuditReport::has(std::string_view invariant) const {
  return count(invariant) > 0;
}

std::size_t AuditReport::count(std::string_view invariant) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (invariant == v.invariant) ++n;
  }
  return n;
}

std::vector<std::string> AuditReport::invariants() const {
  std::set<std::string> names;
  for (const Violation& v : violations) names.emplace(v.invariant);
  return {names.begin(), names.end()};
}

stats::JsonValue AuditReport::to_json() const {
  stats::JsonValue out = stats::JsonValue::object();
  out.set("t_ms", stats::JsonValue{at.as_millis()});
  out.set("checks_run", stats::JsonValue{checks_run});
  out.set("truncated", stats::JsonValue{truncated ? 1 : 0});
  stats::JsonValue skips = stats::JsonValue::array();
  for (const std::string& s : skipped) skips.push_back(stats::JsonValue{s});
  out.set("skipped", std::move(skips));
  stats::JsonValue viols = stats::JsonValue::array();
  for (const Violation& v : violations) viols.push_back(v.to_json());
  out.set("violations", std::move(viols));
  return out;
}

OverlayAuditor::OverlayAuditor(hybrid::HybridSystem& system,
                               proto::OverlayNetwork& network,
                               sim::Simulator& sim, AuditOptions options)
    : sys_(system), net_(network), sim_(sim), options_(options) {
  sys_.add_flood_observer(this);
}

OverlayAuditor::~OverlayAuditor() {
  // The flood registration and the tick lambda point at `this`; leave
  // neither behind.
  sys_.remove_flood_observer(this);
  if (armed_) {
    sim_.cancel(tick_id_);
    sim_.note_daemon_disarmed();
  }
}

void OverlayAuditor::ensure_running() {
  if (armed_ || period_ == sim::Duration{}) return;
  armed_ = true;
  sim_.note_daemon_armed();
  tick_id_ = sim_.schedule_after(period_, [this] { tick(); });
}

void OverlayAuditor::tick() {
  sim::ComponentScope prof{sim_, sim::Component::kAudit};
  armed_ = false;
  sim_.note_daemon_disarmed();
  run();
  // Re-arm only while non-daemon work remains, otherwise the audit event
  // would keep Simulator::run from draining (same daemon contract as
  // TimeSeriesSampler -- pending_work() excludes other periodic ticks, so
  // an armed sampler does not count as work and vice versa).
  if (sim_.pending_work() > 0) ensure_running();
}

void OverlayAuditor::on_flood_wave(PeerIndex at, unsigned ttl) {
  ++flood_waves_seen_;
  // Every flood wave starts from params.ttl (doubled for the one optional
  // re-flood) and only counts down; a larger in-flight TTL means unbounded
  // propagation.
  const auto& params = sys_.params();
  const unsigned bound = params.ttl * (params.reflood_on_timeout ? 2U : 1U);
  if (ttl <= bound) return;
  if (pending_flood_.size() >= options_.max_violations) return;
  Violation v;
  v.invariant = "flood_ttl_bound";
  v.peer = at;
  v.expected = "ttl <= " + std::to_string(bound);
  v.actual = "ttl = " + std::to_string(ttl);
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), "flood_ttl_bound", at.value(), ttl, bound);
  }
  pending_flood_.push_back(std::move(v));
}

void OverlayAuditor::add(AuditReport& report, const char* invariant,
                         PeerIndex peer, std::string expected,
                         std::string actual, std::string detail) {
  if (report.violations.size() >= options_.max_violations) {
    report.truncated = true;
    return;
  }
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), invariant, peer.value(), 0, runs_);
  }
  report.violations.push_back(Violation{invariant, peer, std::move(expected),
                                        std::move(actual), std::move(detail)});
}

bool OverlayAuditor::ring_unsettled() const {
  for (const auto& [pid, t] : sys_.registry()) {
    if (!sys_.is_alive(t) || !sys_.is_joined(t) || sys_.is_joining(t) ||
        sys_.is_leaving(t)) {
      return true;
    }
  }
  return false;
}

unsigned OverlayAuditor::degree_limit(PeerIndex p) const {
  unsigned limit = sys_.params().delta;
  if (sys_.params().link_usage_connect) {
    // Mirror of accepts_child(): capacity class scales the cap.
    switch (net_.underlay().capacity(net_.host_of(p))) {
      case net::CapacityClass::kLow: break;
      case net::CapacityClass::kMedium: limit *= 2; break;
      case net::CapacityClass::kHigh: limit *= 3; break;
    }
  }
  return limit;
}

AuditReport OverlayAuditor::run() {
  AuditReport report;
  report.at = sim_.now();
  // Flood-TTL findings accumulated since the last pass.
  report.checks_run += flood_waves_seen_;
  flood_waves_seen_ = 0;
  report.violations = std::move(pending_flood_);
  pending_flood_.clear();

  check_network(report);
  if (!options_.strict && ring_unsettled()) {
    // A join/leave triangle (or unrepaired crash) is visibly in flight; the
    // ring-structure families are legitimately inconsistent right now.
    report.skipped.emplace_back("ring");
    report.skipped.emplace_back("fingers");
  } else {
    check_ring(report);
    check_fingers(report);
  }
  check_trees(report);
  check_placement(report);
  check_replication(report);

  ++runs_;
  total_violations_ += report.violations.size();
  if (flight_ != nullptr && !report.clean()) {
    flight_->record(sim_.now(), "audit_fail", report.violations.size(),
                    report.checks_run, runs_);
  }
  last_ = std::move(report);
  if (!last_.clean()) last_failing_ = last_;
  return last_;
}

void OverlayAuditor::check_ring(AuditReport& report) {
  const auto& reg = sys_.registry();
  if (reg.empty()) return;
  for (auto it = reg.begin(); it != reg.end(); ++it) {
    const auto [pid, t] = *it;
    auto next_it = std::next(it);
    if (next_it == reg.end()) next_it = reg.begin();
    const PeerIndex expected_next = next_it->second;

    // The registry key is the server's view of the peer's ring position;
    // the peer's own p_id must agree, and it must actually be a t-peer.
    ++report.checks_run;
    if (sys_.pid_of(t).value() != pid || sys_.role_of(t) != Role::kTPeer) {
      add(report, "registry_consistency", t, "pid " + std::to_string(pid),
          "pid " + std::to_string(sys_.pid_of(t).value()),
          sys_.role_of(t) == Role::kTPeer ? "" : "registered peer is not a t-peer");
      continue;
    }

    // Successor family, one verdict per peer: dangling beats asymmetric
    // beats out-of-order, so a single corruption is reported under a single
    // name instead of cascading through all three.
    const PeerIndex suc = sys_.successor_of(t);
    const bool suc_live =
        suc != kNoPeer && sys_.is_alive(suc) && sys_.is_joined(suc);
    if (!options_.strict && suc != kNoPeer && !suc_live) {
      // The neighbour crashed and was already deregistered, but this peer's
      // pointer repair is still pending (a timer, not necessarily a message
      // in flight) -- ring_unsettled() cannot see it.  Strict mode flags it.
      continue;
    }
    ++report.checks_run;
    if (!suc_live) {
      add(report, "ring_dangling_successor", t, "live joined successor",
          suc == kNoPeer ? "no successor" : "dead or unjoined peer " + peer_str(suc));
    } else if (sys_.predecessor_of(suc) != t) {
      add(report, "ring_successor_symmetry", t,
          "predecessor(" + peer_str(suc) + ") == " + peer_str(t),
          "predecessor(" + peer_str(suc) + ") == " +
              peer_str(sys_.predecessor_of(suc)));
    } else if (suc != expected_next) {
      add(report, "ring_cycle_order", t,
          "successor == " + peer_str(expected_next) + " (registry order)",
          "successor == " + peer_str(suc));
    }

    // Cached neighbour ids must match the neighbours' actual p_ids: routing
    // decisions (in_arc tests) are made against the caches.
    ++report.checks_run;
    if (suc != kNoPeer && sys_.successor_id_of(t) != sys_.pid_of(suc)) {
      add(report, "ring_id_cache", t,
          "successor_id " + std::to_string(sys_.pid_of(suc).value()),
          "successor_id " + std::to_string(sys_.successor_id_of(t).value()));
    }
    const PeerIndex pre = sys_.predecessor_of(t);
    ++report.checks_run;
    if (pre != kNoPeer && sys_.predecessor_id_of(t) != sys_.pid_of(pre)) {
      add(report, "ring_id_cache", t,
          "predecessor_id " + std::to_string(sys_.pid_of(pre).value()),
          "predecessor_id " + std::to_string(sys_.predecessor_id_of(t).value()));
    }
  }
}

void OverlayAuditor::check_fingers(AuditReport& report) {
  // Finger tables are only populated in kFinger routing mode (or after an
  // explicit refresh); unset entries are skipped, stale-but-cached entries
  // are the strict-mode findings.
  for (const auto& [pid, t] : sys_.registry()) {
    const chord::FingerTable& fingers = sys_.fingers_of(t);
    for (unsigned k = 0; k < chord::FingerTable::size(); ++k) {
      const chord::Finger& f = fingers.entry(k);
      if (f.node == kNoPeer) continue;
      ++report.checks_run;
      if (f.node_id != sys_.pid_of(f.node)) {
        add(report, "finger_id_cache", t,
            "finger[" + std::to_string(k) + "].node_id " +
                std::to_string(sys_.pid_of(f.node).value()),
            std::to_string(f.node_id.value()));
      }
      if (!options_.strict) continue;
      ++report.checks_run;
      if (!sys_.is_alive(f.node) || !sys_.is_joined(f.node)) {
        add(report, "finger_liveness", t, "live joined finger target",
            "dead or unjoined peer " + peer_str(f.node),
            "finger[" + std::to_string(k) + "]");
      }
      ++report.checks_run;
      const PeerIndex owner = sys_.owner_tpeer(DataId{fingers.start(k)});
      if (owner != kNoPeer && owner != f.node) {
        add(report, "finger_targets", t,
            "finger[" + std::to_string(k) + "] == successor(" +
                std::to_string(fingers.start(k)) + ") == " + peer_str(owner),
            peer_str(f.node));
      }
    }
  }
}

void OverlayAuditor::check_trees(AuditReport& report) {
  const bool lenient = !options_.strict;
  const bool capped = sys_.params().style == SNetworkStyle::kTree ||
                      sys_.params().style == SNetworkStyle::kMesh;

  // Downward walk from every registered root: child lists must form a tree
  // whose members agree about parent, root, and inherited p_id.
  for (const auto& [pid, root] : sys_.registry()) {
    if (lenient && (!sys_.is_alive(root) || !sys_.is_joined(root) ||
                    sys_.is_joining(root) || sys_.is_leaving(root))) {
      continue;  // mid-transition; the next quiescent pass covers it
    }
    std::set<std::uint32_t> visited{root.value()};
    std::vector<PeerIndex> frontier{root};
    while (!frontier.empty()) {
      std::vector<PeerIndex> next_level;
      for (PeerIndex p : frontier) {
        for (PeerIndex c : sys_.children_of(p)) {
          if (lenient && (!sys_.is_alive(c) || !sys_.is_joined(c))) {
            continue;  // crashed or mid-rejoin child, repair pending
          }
          ++report.checks_run;
          if (sys_.parent_of(c) != p) {
            // A false-positive suspicion makes the child re-home while the
            // old parent, alive all along, keeps its stale entry until its
            // own hello timeout erases it.  Lenient passes excuse exactly
            // that window -- the child must be consistently attached under
            // its claimed new parent (or mid-rejoin with no parent yet);
            // a child attached nowhere coherent is corruption even
            // mid-churn, and strict passes flag any stale entry.
            const PeerIndex q = sys_.parent_of(c);
            bool reattached = q == kNoPeer;
            if (!reattached && sys_.is_alive(q) && sys_.is_joined(q)) {
              const auto& qkids = sys_.children_of(q);
              reattached =
                  std::find(qkids.begin(), qkids.end(), c) != qkids.end();
            }
            if (!(lenient && reattached)) {
              add(report, "tree_parent_child_symmetry", c,
                  "cp == " + peer_str(p),
                  "cp == " + peer_str(sys_.parent_of(c)),
                  "listed as child of " + peer_str(p));
            }
            continue;
          }
          ++report.checks_run;
          if (!visited.insert(c.value()).second) {
            add(report, "tree_acyclic_rooted", c, "each s-peer visited once",
                "revisited via " + peer_str(p),
                "s-network of t-peer " + peer_str(root));
            continue;
          }
          ++report.checks_run;
          if (sys_.tpeer_of(c) != root || sys_.pid_of(c) != sys_.pid_of(root)) {
            add(report, "snet_pid_inheritance", c,
                "tpeer " + peer_str(root) + ", pid " +
                    std::to_string(sys_.pid_of(root).value()),
                "tpeer " + peer_str(sys_.tpeer_of(c)) + ", pid " +
                    std::to_string(sys_.pid_of(c).value()));
          }
          next_level.push_back(c);
        }
        if (capped) {
          ++report.checks_run;
          const unsigned degree =
              static_cast<unsigned>(sys_.children_of(p).size()) +
              (sys_.parent_of(p) != kNoPeer ? 1U : 0U);
          // A promotion legitimately leaves the heir with the absorbed
          // children of the old root (up to twice the cap), so the lenient
          // bound is 2x.
          const unsigned limit = degree_limit(p) * (lenient ? 2U : 1U);
          if (degree > limit) {
            add(report, "tree_degree_cap", p,
                "degree <= " + std::to_string(limit),
                "degree == " + std::to_string(degree));
          }
        }
      }
      frontier = std::move(next_level);
    }
  }

  // Upward scan over every live joined s-peer: its parent must know it, and
  // (strict) its cp chain must reach its own t-peer.
  const std::size_t n = sys_.num_peers();
  for (std::uint32_t i = 0; i < n; ++i) {
    const PeerIndex p{i};
    if (sys_.is_server_peer(p) || sys_.role_of(p) != Role::kSPeer) continue;
    if (!sys_.is_alive(p) || !sys_.is_joined(p)) continue;
    const PeerIndex cp = sys_.parent_of(p);
    if (cp != kNoPeer &&
        (!lenient || (sys_.is_alive(cp) && sys_.is_joined(cp)))) {
      ++report.checks_run;
      const auto& kids = sys_.children_of(cp);
      if (std::find(kids.begin(), kids.end(), p) == kids.end()) {
        add(report, "tree_parent_child_symmetry", p,
            "listed in children(" + peer_str(cp) + ")", "absent",
            "cp == " + peer_str(cp));
      }
    }
    if (!options_.strict) continue;
    // Quiescent contract: an upward path must exist, or stored items are
    // unreachable by in-segment queries.
    ++report.checks_run;
    PeerIndex cur = p;
    std::size_t steps = 0;
    while (cur != kNoPeer && sys_.role_of(cur) == Role::kSPeer &&
           steps++ <= n) {
      cur = sys_.parent_of(cur);
    }
    const bool rooted = cur != kNoPeer && sys_.role_of(cur) == Role::kTPeer &&
                        sys_.is_alive(cur) && sys_.is_joined(cur) &&
                        cur == sys_.tpeer_of(p);
    if (!rooted) {
      if (!sys_.store_of(p).empty()) {
        add(report, "data_orphaned", p,
            "cp chain reaching live t-peer " + peer_str(sys_.tpeer_of(p)),
            "chain ends at " + peer_str(cur),
            std::to_string(sys_.store_of(p).size()) + " items unreachable");
      } else {
        add(report, "tree_unrooted", p,
            "cp chain reaching live t-peer " + peer_str(sys_.tpeer_of(p)),
            "chain ends at " + peer_str(cur));
      }
    }
  }
}

void OverlayAuditor::check_placement(AuditReport& report) {
  if (sys_.params().style == SNetworkStyle::kBitTorrent) {
    // Tracker mode: the tracker index, not the segment, is the authority
    // for where an item lives.
    report.skipped.emplace_back("placement:bittorrent");
    return;
  }
  if (sys_.registry().empty()) return;
  if (!options_.strict &&
      (ring_unsettled() || net_.stats().messages_in_flight > 0)) {
    // Items travel by message; while any are on the wire (or segments are
    // being renegotiated) placement is legitimately in flux.
    report.skipped.emplace_back("placement");
    return;
  }
  const std::size_t n = sys_.num_peers();
  for (std::uint32_t i = 0; i < n; ++i) {
    const PeerIndex p{i};
    if (sys_.is_server_peer(p)) continue;
    if (!sys_.is_alive(p) || !sys_.is_joined(p)) continue;
    const PeerIndex root =
        sys_.role_of(p) == Role::kTPeer ? p : sys_.tpeer_of(p);
    if (!options_.strict &&
        (root == kNoPeer || !sys_.is_alive(root) || !sys_.is_joined(root))) {
      continue;  // orphan fallback storage; rehomed on rejoin
    }
    const bool replication = sys_.params().replication_factor > 1;
    sys_.store_of(p).for_each([&](const proto::DataItem& item) {
      ++report.checks_run;
      // Replica copies are exempt: the successor-fallback holder of a small
      // segment legitimately lives outside the owning s-network, and
      // check_replication owns the durability contract for them.
      if (replication && item.replica) return;
      const PeerIndex owner = sys_.owner_tpeer(item.id);
      if (owner != kNoPeer && owner != root) {
        add(report, "data_misplaced", p,
            "d_id " + std::to_string(item.id.value()) +
                " in s-network of t-peer " + peer_str(owner),
            "held in s-network of t-peer " + peer_str(root),
            "key '" + item.key + "'");
      }
    });
  }
}

void OverlayAuditor::check_replication(AuditReport& report) {
  const auto& params = sys_.params();
  if (params.replication_factor <= 1 ||
      params.style == SNetworkStyle::kBitTorrent) {
    return;
  }
  if (!options_.strict) {
    // Replica counts are legitimately short while repair traffic is on the
    // wire; only the quiescent contract pins them down.
    report.skipped.emplace_back("replication");
    return;
  }
  if (sys_.registry().empty()) return;
  // Distinct live joined holders per id.  Peers are scanned in index order
  // and a store chains same-id items contiguously, so each holder list stays
  // sorted and dedup needs only a back() check.
  std::map<std::uint64_t, std::vector<PeerIndex>> holders;
  const std::size_t n = sys_.num_peers();
  for (std::uint32_t i = 0; i < n; ++i) {
    const PeerIndex p{i};
    if (sys_.is_server_peer(p)) continue;
    if (!sys_.is_alive(p) || !sys_.is_joined(p)) continue;
    sys_.store_of(p).for_each([&](const proto::DataItem& item) {
      auto& hs = holders[item.id.value()];
      if (hs.empty() || hs.back() != p) hs.push_back(p);
    });
  }
  // Durability contract: every surviving item reaches as many live holders
  // as its replica set can currently seat (min(r, segment size), plus the
  // successor fallback when the segment is short).  Ids with zero live
  // holders are total loss -- the oracle's business, not a structural
  // violation.
  for (const auto& [id_value, hs] : holders) {
    ++report.checks_run;
    const auto rs = sys_.replica_set(DataId{id_value});
    if (hs.size() < rs.size()) {
      add(report, "replica_count", rs.empty() ? kNoPeer : rs.front(),
          "d_id " + std::to_string(id_value) + " on >= " +
              std::to_string(rs.size()) + " live holders",
          std::to_string(hs.size()) + " live holders",
          "replication_factor " + std::to_string(params.replication_factor));
    }
  }
}

void OverlayAuditor::check_network(AuditReport& report) {
  const proto::NetworkStats& s = net_.stats();
  // Conservation: every sent message is eventually delivered or dropped at
  // a dead receiver; until then it is in flight.  All counters are bumped
  // synchronously by the transport, so this holds at *every* instant.
  ++report.checks_run;
  const std::uint64_t accounted =
      s.messages_delivered + s.reason_drops(proto::DropReason::kDeadReceiver) +
      s.messages_in_flight;
  if (s.messages_sent != accounted) {
    add(report, "net_conservation", kNoPeer,
        "sent " + std::to_string(s.messages_sent),
        "delivered + dead_receiver + in_flight = " + std::to_string(accounted));
  }
  // Per-reason drop counters must tie out with the aggregates they feed.
  ++report.checks_run;
  const std::uint64_t dropped =
      s.reason_drops(proto::DropReason::kDeadSender) +
      s.reason_drops(proto::DropReason::kDeadReceiver);
  if (s.messages_dropped != dropped) {
    add(report, "net_drop_accounting", kNoPeer,
        "messages_dropped " + std::to_string(dropped),
        std::to_string(s.messages_dropped));
  }
  ++report.checks_run;
  if (s.messages_lost != s.reason_drops(proto::DropReason::kLoss)) {
    add(report, "net_drop_accounting", kNoPeer,
        "messages_lost " +
            std::to_string(s.reason_drops(proto::DropReason::kLoss)),
        std::to_string(s.messages_lost));
  }
}

}  // namespace hp2p::audit
