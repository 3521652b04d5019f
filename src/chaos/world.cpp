#include "chaos/world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/env.hpp"

namespace hp2p::chaos {

std::uint32_t tpeer_count(std::uint32_t num_peers, double ps) {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround((1.0 - ps) * num_peers)));
}

World::World(Rng& topo_rng, Rng& system_rng, std::uint32_t hosts,
             const hybrid::HybridParams& params,
             proto::OverlayNetworkOptions net_opts)
    : Substrate(topo_rng, hosts, net_opts),
      system(network, params, HostIndex{0}, system_rng) {}

void World::install_tie_break(const std::string& spec) {
  const std::string chosen = spec.empty() ? env_or("HP2P_TIEBREAK", "") : spec;
  constexpr std::string_view kPrefix = "shuffle:";
  if (chosen.rfind(kPrefix, 0) != 0) return;
  shuffler_ = std::make_unique<sim::ShuffleTieBreak>(
      std::strtoull(chosen.c_str() + kPrefix.size(), nullptr, 10));
  sim.set_tie_break_policy(shuffler_.get());
}

HostIndex World::next_host() {
  return HostIndex{1 + host_cursor_++ % (underlay.num_hosts() - 1)};
}

void World::schedule_joins(std::uint32_t num_peers, std::uint32_t num_tpeers,
                           sim::Duration spacing) {
  for (std::uint32_t i = 0; i < num_peers; ++i) {
    const auto role = i < num_tpeers ? hybrid::Role::kTPeer
                                     : hybrid::Role::kSPeer;
    const HostIndex host = next_host();
    sim.schedule_at(sim::SimTime::micros(spacing.as_micros() * (i + 1)),
                    [this, host, role] {
                      system.add_peer_with_role(host, role);
                    });
  }
}

std::vector<PeerIndex> World::live_nonserver_peers() const {
  std::vector<PeerIndex> out;
  for (std::size_t i = 0; i < system.num_peers(); ++i) {
    const PeerIndex p{static_cast<std::uint32_t>(i)};
    if (system.is_server_peer(p) || !system.is_alive(p) ||
        !system.is_joined(p)) {
      continue;
    }
    out.push_back(p);
  }
  return out;
}

stats::JsonValue ChaosViolation::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("kind", kind);
  v.set("detail", detail);
  v.set("a", static_cast<std::int64_t>(a));
  v.set("b", static_cast<std::int64_t>(b));
  return v;
}

Judge::Judge(World& world, stats::FlightRecorder* flight,
             const char* flight_kind)
    : model(world.system),
      world_(world),
      flight_(flight),
      flight_kind_(flight_kind) {}

void Judge::add(const char* kind, std::string detail, std::uint64_t a,
                std::uint64_t b) {
  if (flight_ != nullptr) {
    flight_->record(world_.sim.now(), flight_kind_, a, b, violations.size());
  }
  violations.push_back(ChaosViolation{kind, std::move(detail), a, b});
}

void Judge::add_audit(const char* kind, const audit::AuditReport& report) {
  for (const auto& v : report.violations) {
    add(kind,
        std::string(v.invariant) + ": expected " + v.expected + ", got " +
            v.actual + " (" + v.detail + ")",
        v.peer.value());
  }
}

void Judge::track(TrackedLookup& t, PeerIndex origin, DataId id) {
  t.id = id;
  t.origin = origin;
  t.must_at_issue = !model.live_holders(id).empty();
  world_.system.lookup_id(origin, id, [&t](proto::LookupResult r) {
    t.done = true;
    t.result = r;
  });
}

Tally Judge::judge_tracked(
    const std::vector<TrackedLookup>& lookups, const char* what,
    const char* must_kind, const std::function<void(std::size_t)>& on_success) {
  Tally tally;
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    const TrackedLookup& t = lookups[i];
    if (t.origin == kNoPeer) continue;
    ++tally.issued;
    if (!t.done) {
      add("lookup_wedged", std::string(what) + " lookup never completed",
          t.id.value(), t.origin.value());
      continue;
    }
    if (t.result.success) {
      ++tally.succeeded;
      if (on_success) on_success(i);
      continue;
    }
    ++tally.failed;
    if (t.must_at_issue && model.classify(t.origin, t.id).must) {
      ++tally.must_failed;
      add(must_kind,
          std::string(what) +
              " lookup failed; oracle says MUST at issue and after recovery",
          t.id.value(), t.origin.value());
    }
  }
  return tally;
}

QuiescentVerdict Judge::judge_quiescent(audit::OverlayAuditor* auditor) {
  QuiescentVerdict verdict;
  verdict.ring_ok = world_.system.verify_ring();
  verdict.trees_ok = world_.system.verify_trees();
  if (!verdict.ring_ok) add("ring_broken", "verify_ring() failed after settle");
  if (!verdict.trees_ok) {
    add("trees_broken", "verify_trees() failed after settle");
  }
  std::optional<audit::OverlayAuditor> fresh;
  if (auditor == nullptr) {
    auditor = &fresh.emplace(world_.system, world_.network, world_.sim,
                             audit::AuditOptions{.strict = true});
  }
  const auto report = auditor->run();
  verdict.audit_violations =
      static_cast<std::uint32_t>(report.violations.size());
  add_audit("audit", report);
  return verdict;
}

Tally Judge::oracle_wave(
    sim::Duration slack, bool skip_dead_origins,
    const std::function<std::optional<WaveLookup>(std::uint32_t)>& top_up) {
  hybrid::HybridSystem& system = world_.system;
  struct Slot {
    Expectation exp;
    DataId id{};
    PeerIndex origin = kNoPeer;
    bool done = false;
    bool success = false;
  };
  // Shared with the callbacks, which may outlive this call.  Lookups do not
  // mutate membership with caching off, so up-front verdicts stay valid.
  auto wave = std::make_shared<std::vector<Slot>>();
  const auto issue = [&](PeerIndex origin, DataId id) {
    const std::size_t slot = wave->size();
    wave->push_back(Slot{model.classify(origin, id), id, origin});
    system.lookup_id(origin, id, [wave, slot](proto::LookupResult r) {
      (*wave)[slot].done = true;
      (*wave)[slot].success = r.success;
    });
  };
  for (const auto& [id, origin] : model.stores()) {
    if (skip_dead_origins &&
        (!system.is_alive(origin) || !system.is_joined(origin))) {
      continue;
    }
    issue(origin, DataId{id});
  }
  if (top_up) {
    while (const auto extra =
               top_up(static_cast<std::uint32_t>(wave->size()))) {
      issue(extra->first, extra->second);
    }
  }
  world_.sim.run_until(world_.sim.now() + system.params().lookup_timeout +
                       slack);

  Tally tally;
  for (const Slot& w : *wave) {
    ++(w.exp.must ? tally.must_issued : tally.may_issued);
    if (!w.done) {
      add("lookup_wedged", "oracle-wave lookup never completed", w.id.value(),
          w.origin.value());
      continue;
    }
    if (w.success) continue;
    if (!w.exp.must) {
      ++tally.may_failed;
      continue;
    }
    ++tally.must_failed;
    add("must_lookup_failed",
        std::string("MUST lookup failed (") + w.exp.reason + ")", w.id.value(),
        w.origin.value());
  }
  if (system.pending_lookups() != 0) {
    add("lookup_wedged", "pending_lookups() != 0 after the wave deadline",
        system.pending_lookups());
  }
  return tally;
}

}  // namespace hp2p::chaos
