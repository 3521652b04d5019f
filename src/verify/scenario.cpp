#include "verify/scenario.hpp"

#include <string>

#include "chaos/chaos_runner.hpp"
#include "chaos/world.hpp"
#include "verify/state_hash.hpp"
#include "workload/workload.hpp"

namespace hp2p::verify {

hybrid::HybridParams verify_default_params() {
  // The chaos defaults with every rng-drawing path off: placement at the
  // responsible t-peer (no spread walk) and flood search (no random walks);
  // the scenarios force roles and use trees (no mesh shuffle).
  hybrid::HybridParams p = chaos::chaos_default_params();
  p.placement = hybrid::PlacementScheme::kTPeerStores;
  p.s_search = hybrid::SSearch::kFlood;
  p.lookup_timeout = sim::SimTime::seconds(5);
  return p;
}

std::string ScenarioOutcome::dump() const {
  std::string out = "aborted=" + std::to_string(aborted ? 1 : 0) +
                    " hash=" + std::to_string(state_hash) +
                    " events=" + std::to_string(events_executed);
  for (const std::string& v : violations) out += "\n" + v;
  return out;
}

ScenarioOutcome run_scenario(const ScenarioConfig& cfg,
                             ScenarioPolicy* policy) {
  ScenarioOutcome out;

  Rng rng(cfg.seed);
  chaos::World world(rng, rng, cfg.hosts, cfg.params);
  hybrid::HybridSystem& system = world.system;
  sim::Simulator& sim = world.sim;
  if (policy != nullptr) sim.set_tie_break_policy(policy, cfg.window);

  const std::uint32_t num_peers = cfg.num_tpeers + cfg.num_speers;

  // Canary fault: deterministic heartbeat delay on one directed pair.
  if (cfg.hello_delay_from != 0 && cfg.hello_delay_to != 0) {
    const PeerIndex df{cfg.hello_delay_from};
    const PeerIndex dt{cfg.hello_delay_to};
    world.network.set_fault([&sim, &cfg, df, dt](PeerIndex from, PeerIndex to,
                                                 proto::TrafficClass cls,
                                                 std::uint32_t) {
      proto::FaultAction action;
      if (cls == proto::TrafficClass::kHeartbeat && from == df && to == dt &&
          sim.now() >= cfg.hello_delay_start &&
          sim.now() < cfg.hello_delay_end) {
        action.extra_delay = cfg.hello_delay_by;
      }
      return action;
    });
  }

  // --- Deterministic timeline -----------------------------------------------------
  // Joins 100ms apart (t-peers first, forced roles): well clear of any
  // plausible commutation window, so dense peer indices -- and therefore
  // the canonical hash -- are stable across interleavings.
  world.schedule_joins(num_peers, cfg.num_tpeers, sim::SimTime::millis(100));

  // Stores: fixed corpus, fixed origins (round-robin over the join order),
  // mirrored into the reference model as they execute.
  chaos::Judge judge(world);
  const auto corpus = workload::uniform_corpus(cfg.num_items, cfg.seed);
  for (std::uint32_t k = 0; k < cfg.num_items; ++k) {
    const auto& item = corpus[k];
    const PeerIndex origin{1 + k % num_peers};
    sim.schedule_at(sim::SimTime::millis(1500 + 20 * k),
                    [&system, &judge, origin, item] {
                      if (!system.is_alive(origin) ||
                          !system.is_joined(origin)) {
                        return;
                      }
                      system.store_id(origin, item.id, item.key, item.value);
                      judge.model.record_store(item.id, origin);
                    });
  }

  sim.schedule_at(sim::SimTime::millis(2000),
                  [&system] { system.start_failure_detection(); });

  if (cfg.crash_peer != 0) {
    const PeerIndex victim{cfg.crash_peer};
    sim.schedule_at(cfg.crash_at, [&system, victim] { system.crash(victim); });
  }

  // In-horizon lookups, judged post-hoc exactly like the chaos storm
  // lookups.
  std::vector<chaos::TrackedLookup> storm(cfg.num_lookups);
  for (std::uint32_t k = 0; k < cfg.num_lookups; ++k) {
    chaos::TrackedLookup* slot = &storm[k];
    const DataId id = corpus.empty() ? DataId{} : corpus[k % corpus.size()].id;
    const PeerIndex origin{1 + (k * 2 + 1) % num_peers};
    sim.schedule_at(cfg.lookup_at + sim::SimTime::millis(150 * k),
                    [&system, &judge, slot, id, origin] {
                      if (!system.is_alive(origin) ||
                          !system.is_joined(origin)) {
                        return;
                      }
                      judge.track(*slot, origin, id);
                    });
  }

  // --- Explored horizon -----------------------------------------------------------
  while (sim.next_event_time() <= cfg.horizon) {
    if (policy != nullptr && policy->aborted()) {
      out.aborted = true;
      return out;
    }
    sim.step();
  }
  if (policy != nullptr && policy->aborted()) {
    out.aborted = true;
    return out;
  }
  sim.run_until(cfg.horizon);
  out.events_executed = sim.stats().events_executed;

  // --- Quiescent verdicts (canonical FIFO order from here on) ---------------------
  sim.set_tie_break_policy(nullptr);
  out.state_hash = canonical_state_hash(system);

  judge.judge_quiescent();
  // Oracle wave: every stored item looked up from its (live) storing origin.
  judge.oracle_wave(sim::SimTime::seconds(2), /*skip_dead_origins=*/true);
  judge.judge_tracked(storm, "in-horizon", "storm_must_failed");
  for (const chaos::ChaosViolation& v : judge.violations) {
    out.violations.push_back(v.to_json().dump(0));
  }
  return out;
}

}  // namespace hp2p::verify
