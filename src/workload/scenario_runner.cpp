#include "workload/scenario_runner.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "chaos/fault_engine.hpp"
#include "chaos/world.hpp"

namespace hp2p::workload {

namespace {

/// Interest tag given to kRecentJoin joiners, so an interest-based server
/// anchors the whole crowd into one s-network.
constexpr std::uint32_t kCrowdInterest = 7;

/// Deterministic actor resolution: start at pick % size and walk forward to
/// the first usable peer, so equal picks keep naming the same peer for as
/// long as it lives (the swarm relies on this for stable seeder/leecher
/// identities).
PeerIndex resolve_actor(const hybrid::HybridSystem& system,
                        const std::vector<PeerIndex>& pool,
                        std::uint32_t pick) {
  if (pool.empty()) return kNoPeer;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const PeerIndex p = pool[(pick + i) % pool.size()];
    if (system.is_alive(p) && system.is_joined(p) && !system.is_leaving(p)) {
      return p;
    }
  }
  return kNoPeer;
}

}  // namespace

stats::JsonValue ScenarioReport::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("scenario", scenario);
  v.set("seed", static_cast<std::int64_t>(seed));
  v.set("ops", static_cast<std::int64_t>(ops));
  v.set("stores", static_cast<std::int64_t>(stores));
  v.set("lookups_issued", static_cast<std::int64_t>(lookups_issued));
  v.set("lookups_succeeded", static_cast<std::int64_t>(lookups_succeeded));
  v.set("lookups_failed", static_cast<std::int64_t>(lookups_failed));
  v.set("retries", static_cast<std::int64_t>(retries));
  v.set("joins", static_cast<std::int64_t>(joins));
  v.set("leaves", static_cast<std::int64_t>(leaves));
  v.set("ops_skipped", static_cast<std::int64_t>(ops_skipped));
  v.set("crashes", static_cast<std::int64_t>(crashes));
  v.set("chaos_joins", static_cast<std::int64_t>(chaos_joins));
  v.set("must_failed", static_cast<std::int64_t>(must_failed));
  v.set("wave_must_issued", static_cast<std::int64_t>(wave_must_issued));
  v.set("wave_may_issued", static_cast<std::int64_t>(wave_may_issued));
  v.set("wave_must_failed", static_cast<std::int64_t>(wave_must_failed));
  v.set("value_mismatches", static_cast<std::int64_t>(value_mismatches));
  v.set("audit_violations", static_cast<std::int64_t>(audit_violations));
  v.set("ring_ok", ring_ok);
  v.set("trees_ok", trees_ok);
  v.set("availability", availability);
  v.set("mean_latency_ms", mean_latency_ms);
  v.set("max_peer_load", static_cast<std::int64_t>(max_peer_load));
  v.set("mean_peer_load", mean_peer_load);
  v.set("load_skew", load_skew);
  v.set("cache_hits", static_cast<std::int64_t>(cache_hits));
  auto arr = stats::JsonValue::array();
  for (const chaos::ChaosViolation& viol : violations) {
    arr.push_back(viol.to_json());
  }
  v.set("violations", std::move(arr));
  return v;
}

ScenarioReport run_scenario(const ScenarioConfig& cfg) {
  ScenarioReport report;
  report.seed = cfg.seed;
  report.scenario = cfg.workload != nullptr ? cfg.workload->name() : "?";
  if (cfg.workload == nullptr) {
    if (cfg.flight != nullptr) {
      cfg.flight->record({}, "scenario_violation", 0, 0, 0);
    }
    report.violations.push_back(
        chaos::ChaosViolation{"config_error", "no workload set"});
    return report;
  }

  Rng rng(cfg.seed);
  chaos::World world(rng, rng, cfg.hosts, cfg.params);
  hybrid::HybridSystem& system = world.system;
  sim::Simulator& sim = world.sim;
  world.install_tie_break(cfg.tie_break);

  // --- Population (same staging as the chaos runner). ---------------------
  world.schedule_joins(cfg.num_peers, chaos::tpeer_count(cfg.num_peers, cfg.ps),
                       sim::SimTime::millis(40));
  sim.run();

  chaos::Judge judge(world, cfg.flight, "scenario_violation");
  const auto corpus = cfg.workload->corpus(cfg.seed);
  const auto ops = cfg.workload->generate(cfg.seed);
  report.ops = static_cast<std::uint32_t>(ops.size());

  {
    // Strict pre-flight audit on the quiescent freshly built overlay.
    audit::OverlayAuditor pre(system, world.network, sim, {.strict = true});
    judge.add_audit("audit_pre", pre.run());
  }

  system.start_failure_detection();

  // --- Op window: workload stream + shifted chaos schedule. ---------------
  const sim::SimTime t0 = sim.now() + sim::SimTime::seconds(1);
  const sim::SimTime stream_end =
      t0 + (ops.empty() ? sim::SimTime{} : ops.back().at);

  chaos::FaultSchedule shifted = cfg.schedule;
  for (chaos::FaultPhase& phase : shifted.phases) phase.start += t0;
  chaos::FaultScheduleEngine engine(world, shifted, cfg.flight);
  engine.arm();

  const std::vector<PeerIndex> base_actors = world.live_nonserver_peers();
  std::vector<PeerIndex> recent_joins;

  std::vector<chaos::TrackedLookup> lookups;
  lookups.reserve(static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const Op& op) {
        return op.kind == Op::Kind::kLookup;
      })));

  const sim::SimTime window_end =
      std::max(stream_end, shifted.end()) + cfg.settle;

  // Issues one lookup attempt for `slot`; on failure, reissues up to
  // cfg.lookup_retries times after cfg.retry_backoff, from an origin shifted
  // by the attempt number (a client whose own attachment is severed must not
  // just retry through itself).  must_at_issue is pinned at the FIRST
  // attempt; the result is the final one's.
  std::function<void(chaos::TrackedLookup*, Op::Origin, std::uint32_t,
                     std::uint32_t)>
      issue_lookup;
  issue_lookup = [&](chaos::TrackedLookup* slot, Op::Origin origin_kind,
                     std::uint32_t pick, std::uint32_t attempt) {
    const std::vector<PeerIndex>& pool =
        origin_kind == Op::Origin::kRecentJoin && !recent_joins.empty()
            ? recent_joins
            : base_actors;
    const PeerIndex origin = resolve_actor(system, pool, pick + attempt);
    if (origin == kNoPeer) {
      if (slot->origin == kNoPeer) {
        ++report.ops_skipped;
      } else {
        slot->done = true;  // retried into a dead pool: final failure
      }
      return;
    }
    if (slot->origin == kNoPeer) {
      // Same pin as Judge::track: only the data must be live.
      slot->must_at_issue = !judge.model.live_holders(slot->id).empty();
    }
    slot->origin = origin;
    system.lookup_id(
        origin, slot->id,
        [&, slot, origin_kind, pick, attempt](proto::LookupResult r) {
          const bool can_retry =
              attempt < cfg.lookup_retries &&
              sim.now() + cfg.retry_backoff + cfg.params.lookup_timeout <
                  window_end;
          if (!r.success && can_retry) {
            ++report.retries;
            sim.schedule_at(sim.now() + cfg.retry_backoff,
                            [&, slot, origin_kind, pick, attempt] {
                              issue_lookup(slot, origin_kind, pick,
                                           attempt + 1);
                            });
            return;
          }
          slot->done = true;
          slot->result = r;
        });
  };

  for (const Op& op : ops) {
    const sim::SimTime at = t0 + op.at;
    switch (op.kind) {
      case Op::Kind::kStore: {
        const WorkItem* item = &corpus[op.item % corpus.size()];
        const std::uint32_t pick = op.pick;
        sim.schedule_at(at, [&, item, pick] {
          const PeerIndex origin = resolve_actor(system, base_actors, pick);
          if (origin == kNoPeer) {
            ++report.ops_skipped;
            return;
          }
          system.store_id(origin, item->id, item->key, item->value);
          judge.model.record_store(item->id, origin);
          ++report.stores;
        });
        break;
      }
      case Op::Kind::kLookup: {
        lookups.push_back(chaos::TrackedLookup{});
        chaos::TrackedLookup* slot = &lookups.back();
        slot->item = op.item % static_cast<std::uint32_t>(corpus.size());
        slot->id = corpus[slot->item].id;
        const Op::Origin origin_kind = op.origin;
        const std::uint32_t pick = op.pick;
        sim.schedule_at(at, [&, slot, origin_kind, pick] {
          issue_lookup(slot, origin_kind, pick, 0);
        });
        break;
      }
      case Op::Kind::kJoin: {
        const bool targeted = op.origin == Op::Origin::kRecentJoin;
        sim.schedule_at(at, [&, targeted] {
          const HostIndex host = world.next_host();
          // Joiners enter the recent pool immediately; resolve_actor skips
          // them until the join protocol flips `joined`, so a pre-completion
          // lookup just falls forward to an older crowd member.
          const PeerIndex p =
              targeted ? system.add_peer_with_interest(
                             host, hybrid::Role::kSPeer, kCrowdInterest)
                       : system.add_peer_with_role(host, hybrid::Role::kSPeer);
          recent_joins.push_back(p);
          ++report.joins;
        });
        break;
      }
      case Op::Kind::kLeave: {
        const std::uint32_t pick = op.pick;
        sim.schedule_at(at, [&, pick] {
          std::vector<PeerIndex> victims;
          for (const PeerIndex p : system.live_peers()) {
            if (system.is_server_peer(p) || system.is_leaving(p) ||
                system.is_joining(p) ||
                system.role_of(p) != hybrid::Role::kSPeer) {
              continue;
            }
            victims.push_back(p);
          }
          const PeerIndex victim = resolve_actor(system, victims, pick);
          if (victim == kNoPeer) {
            ++report.ops_skipped;
            return;
          }
          system.leave(victim);
          ++report.leaves;
        });
        break;
      }
    }
  }

  // Lenient periodic audits while the scenario runs: any violation a
  // lenient pass reports is real corruption, not transient churn.
  {
    audit::OverlayAuditor mid(system, world.network, sim);
    if (cfg.audit_period > sim::Duration{}) {
      mid.set_period(cfg.audit_period);
      mid.ensure_running();
    }

    sim.run_until(window_end);
    engine.disarm();
    judge.add_audit("audit_mid", mid.last_failing_report());
  }
  report.crashes = engine.crashes_applied();
  report.chaos_joins = engine.joins_applied();

  // --- Quiescent verdicts. -------------------------------------------------
  const chaos::QuiescentVerdict verdict = judge.judge_quiescent();
  report.ring_ok = verdict.ring_ok;
  report.trees_ok = verdict.trees_ok;
  report.audit_violations = verdict.audit_violations;

  double latency_sum_ms = 0;
  const chaos::Tally tally = judge.judge_tracked(
      lookups, "scenario", "scenario_must_failed", [&](std::size_t i) {
        const chaos::TrackedLookup& t = lookups[i];
        latency_sum_ms += t.result.latency.as_millis();
        const WorkItem& item = corpus[t.item];
        if (cfg.verify_values && t.result.value != item.value) {
          ++report.value_mismatches;
          judge.add("value_mismatch",
                    "lookup returned wrong content for " + item.key,
                    t.id.value(), t.origin.value());
        }
      });
  report.lookups_issued = tally.issued;
  report.lookups_succeeded = tally.succeeded;
  report.lookups_failed = tally.failed;
  report.must_failed = tally.must_failed;
  report.availability =
      report.lookups_issued == 0
          ? 1.0
          : static_cast<double>(report.lookups_succeeded) /
                static_cast<double>(report.lookups_issued);
  report.mean_latency_ms =
      report.lookups_succeeded == 0
          ? 0.0
          : latency_sum_ms / static_cast<double>(report.lookups_succeeded);

  // --- Quiescent MUST/MAY wave over every stored item. ---------------------
  const chaos::Tally wave = judge.oracle_wave(sim::SimTime::seconds(5),
                                              /*skip_dead_origins=*/false);
  report.wave_must_issued = wave.must_issued;
  report.wave_may_issued = wave.may_issued;
  report.wave_must_failed = wave.must_failed;

  // --- Load metrics. --------------------------------------------------------
  report.max_peer_load = system.max_answers_served();
  report.cache_hits = system.cache_hits();
  {
    std::uint64_t total = 0;
    std::uint64_t counted = 0;
    for (std::size_t i = 0; i < system.num_peers(); ++i) {
      const PeerIndex p{static_cast<std::uint32_t>(i)};
      if (system.is_server_peer(p)) continue;
      total += system.answers_served(p);
      ++counted;
    }
    report.mean_peer_load =
        counted == 0 ? 0.0
                     : static_cast<double>(total) /
                           static_cast<double>(counted);
    report.load_skew =
        report.mean_peer_load <= 0.0
            ? 0.0
            : static_cast<double>(report.max_peer_load) /
                  report.mean_peer_load;
  }
  report.violations = std::move(judge.violations);
  return report;
}

// --- Named presets -----------------------------------------------------------

ScenarioConfig diurnal_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.workload = std::make_shared<DiurnalWorkload>();
  cfg.schedule.seed = seed;
  cfg.schedule.phases = {
      // A crash storm through the midday peak plus a short loss burst: the
      // availability claim has to hold when load and churn coincide.
      chaos::FaultPhase{.kind = chaos::FaultKind::kSPeerCrashStorm,
                        .start = sim::SimTime::seconds(45),
                        .duration = sim::SimTime::seconds(20),
                        .count = 4},
      chaos::FaultPhase{.kind = chaos::FaultKind::kLossBurst,
                        .start = sim::SimTime::seconds(50),
                        .duration = sim::SimTime::seconds(10),
                        .intensity = 0.05},
  };
  return cfg;
}

ScenarioConfig hot_key_storm_scenario(std::uint64_t seed, bool caching) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.workload = std::make_shared<HotKeyStormWorkload>();
  cfg.params.enable_caching = caching;
  cfg.schedule.seed = seed;
  cfg.schedule.phases = {
      chaos::FaultPhase{.kind = chaos::FaultKind::kLatencyStorm,
                        .start = sim::SimTime::seconds(20),
                        .duration = sim::SimTime::seconds(15),
                        .intensity = 2.0},
      chaos::FaultPhase{.kind = chaos::FaultKind::kSPeerCrashStorm,
                        .start = sim::SimTime::seconds(40),
                        .duration = sim::SimTime::seconds(10),
                        .count = 3},
  };
  return cfg;
}

ScenarioConfig flash_crowd_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.workload = std::make_shared<FlashCrowdWorkload>();
  // Interest-based assignment makes the tagged crowd pile into one
  // s-network -- the point of the scenario.
  cfg.params.interest_based = true;
  cfg.schedule.seed = seed;
  cfg.schedule.phases = {
      chaos::FaultPhase{.kind = chaos::FaultKind::kLossBurst,
                        .start = sim::SimTime::seconds(26),
                        .duration = sim::SimTime::seconds(8),
                        .intensity = 0.05},
      chaos::FaultPhase{.kind = chaos::FaultKind::kSPeerCrashStorm,
                        .start = sim::SimTime::seconds(40),
                        .duration = sim::SimTime::seconds(8),
                        .count = 2},
  };
  return cfg;
}

ScenarioConfig swarm_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.workload = std::make_shared<SwarmWorkload>();
  cfg.params.style = hybrid::SNetworkStyle::kBitTorrent;
  cfg.ps = 0.8;  // few trackers, many members
  cfg.verify_values = true;
  cfg.schedule.seed = seed;
  cfg.schedule.phases = {
      // Crash trackers mid-download: the re-announce failover must rebuild
      // the holder index before the swarm's lookups time out.
      chaos::FaultPhase{.kind = chaos::FaultKind::kTPeerCrashStorm,
                        .start = sim::SimTime::seconds(25),
                        .duration = sim::SimTime::seconds(10),
                        .count = 2},
  };
  return cfg;
}

}  // namespace hp2p::workload
