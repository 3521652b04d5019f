#include "chaos/chaos_runner.hpp"

#include <optional>

#include "chaos/fault_engine.hpp"
#include "workload/workload.hpp"

namespace hp2p::chaos {

hybrid::HybridParams chaos_default_params() {
  hybrid::HybridParams p;
  p.style = hybrid::SNetworkStyle::kTree;
  p.t_routing = hybrid::TRouting::kRing;
  p.placement = hybrid::PlacementScheme::kRandomSpread;
  p.ttl = 10;
  p.delta = 3;
  p.hello_interval = sim::SimTime::millis(500);
  p.hello_timeout = sim::SimTime::millis(1500);
  p.lookup_timeout = sim::SimTime::seconds(10);
  p.reflood_on_timeout = true;
  // A crashed hop needs detection (~hello_timeout) plus the server
  // round-trip before pointers repair, so give retries room to straddle it.
  p.ring_retry_limit = 3;
  p.ring_retry_base = sim::SimTime::seconds(1);
  p.enable_caching = false;
  p.bypass_links = false;
  return p;
}

stats::JsonValue ChaosReport::to_json() const {
  auto v = stats::JsonValue::object();
  v.set("seed", static_cast<std::int64_t>(seed));
  v.set("crashes", static_cast<std::int64_t>(crashes));
  v.set("joins", static_cast<std::int64_t>(joins));
  v.set("items_stored", static_cast<std::int64_t>(items_stored));
  v.set("items_live", static_cast<std::int64_t>(items_live));
  v.set("must_issued", static_cast<std::int64_t>(must_issued));
  v.set("may_issued", static_cast<std::int64_t>(may_issued));
  v.set("must_failed", static_cast<std::int64_t>(must_failed));
  v.set("may_failed", static_cast<std::int64_t>(may_failed));
  v.set("storm_issued", static_cast<std::int64_t>(storm_issued));
  v.set("storm_failed", static_cast<std::int64_t>(storm_failed));
  v.set("audit_violations", static_cast<std::int64_t>(audit_violations));
  v.set("ring_ok", ring_ok);
  v.set("trees_ok", trees_ok);
  auto arr = stats::JsonValue::array();
  for (const ChaosViolation& viol : violations) arr.push_back(viol.to_json());
  v.set("violations", std::move(arr));
  return v;
}

ChaosReport run_chaos(const ChaosConfig& cfg) {
  ChaosReport report;
  report.seed = cfg.seed;

  Rng rng(cfg.seed);
  World world(rng, rng, cfg.hosts, cfg.params);
  hybrid::HybridSystem& system = world.system;
  sim::Simulator& sim = world.sim;
  // A shuffled tie-break lets a soak exercise interleavings the FIFO kernel
  // never shows; the oracle's verdicts are order-independent, so any new
  // failure is a real protocol bug.
  world.install_tie_break(cfg.tie_break);

  // --- Population: forced roles, staged joins so triangles settle. --------
  world.schedule_joins(cfg.num_peers, tpeer_count(cfg.num_peers, cfg.ps),
                       sim::SimTime::millis(40));
  sim.run();

  // --- Corpus: stores from random live peers, mirrored into the model. ----
  Judge judge(world, cfg.flight, "chaos_violation");
  const auto corpus = workload::uniform_corpus(cfg.num_items, cfg.seed);
  {
    const auto origins = world.live_nonserver_peers();
    for (const auto& item : corpus) {
      const PeerIndex origin = origins[rng.index(origins.size())];
      system.store_id(origin, item.id, item.key, item.value);
      judge.model.record_store(item.id, origin);
    }
  }
  sim.run();

  audit::OverlayAuditor auditor(system, world.network, sim, {.strict = true});
  judge.add_audit("audit_pre", auditor.run());

  // --- Chaos window. ------------------------------------------------------
  system.start_failure_detection();
  FaultScheduleEngine engine(world, cfg.schedule, cfg.flight);
  engine.arm();

  // Function scope: the storm closures draw from it until the window ends.
  Rng storm_rng = rng.fork(0x570);
  std::vector<TrackedLookup> storms(cfg.storm_lookups);
  if (cfg.storm_lookups > 0 && !cfg.schedule.phases.empty()) {
    const sim::SimTime window_start = sim.now() + sim::SimTime::seconds(1);
    const auto span = cfg.schedule.end().as_micros() >
                              window_start.as_micros()
                          ? cfg.schedule.end().as_micros() -
                                window_start.as_micros()
                          : std::int64_t{1};
    for (std::uint32_t k = 0; k < cfg.storm_lookups; ++k) {
      const auto at = window_start + sim::SimTime::micros(
                                         span * k / cfg.storm_lookups);
      const DataId id = corpus[k % corpus.size()].id;
      TrackedLookup* slot = &storms[k];
      sim.schedule_at(at, [&world, &judge, &storm_rng, slot, id] {
        std::vector<PeerIndex> tpeers;
        for (const PeerIndex p : world.live_nonserver_peers()) {
          if (world.system.role_of(p) == hybrid::Role::kTPeer) {
            tpeers.push_back(p);
          }
        }
        if (tpeers.empty()) return;
        judge.track(*slot, tpeers[storm_rng.index(tpeers.size())], id);
      });
    }
  }

  sim.run_until(cfg.schedule.end() + cfg.settle);
  engine.disarm();
  report.crashes = engine.crashes_applied();
  report.joins = engine.joins_applied();

  // --- Quiescent verdicts. ------------------------------------------------
  const QuiescentVerdict verdict = judge.judge_quiescent(&auditor);
  report.ring_ok = verdict.ring_ok;
  report.trees_ok = verdict.trees_ok;
  report.audit_violations = verdict.audit_violations;

  const Tally storm =
      judge.judge_tracked(storms, "storm", "storm_must_failed");
  report.storm_issued = storm.issued;
  report.storm_failed = storm.failed;

  report.items_stored =
      static_cast<std::uint32_t>(judge.model.stores().size());
  for (const auto& [id, origin] : judge.model.stores()) {
    if (!judge.model.live_holders(DataId{id}).empty()) ++report.items_live;
  }

  // The wave tops up to num_lookups with lookups from random live origins.
  const auto origins = world.live_nonserver_peers();
  const Tally wave = judge.oracle_wave(
      sim::SimTime::seconds(5), /*skip_dead_origins=*/false,
      [&](std::uint32_t k) -> std::optional<Judge::WaveLookup> {
        if (k >= cfg.num_lookups || origins.empty()) return std::nullopt;
        return Judge::WaveLookup{origins[rng.index(origins.size())],
                                 corpus[k % corpus.size()].id};
      });
  report.must_issued = wave.must_issued;
  report.may_issued = wave.may_issued;
  report.must_failed = wave.must_failed;
  report.may_failed = wave.may_failed;
  report.violations = std::move(judge.violations);
  return report;
}

}  // namespace hp2p::chaos
