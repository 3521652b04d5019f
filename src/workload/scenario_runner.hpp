// Executes a workload::Workload against a live HybridSystem, optionally
// under a chaos FaultSchedule, with the MUST/MAY oracle and the overlay
// auditor watching.
//
// This is the production-traffic counterpart of chaos::run_chaos: where the
// chaos runner drives a synthetic storm shaped by the fault schedule, this
// runner replays a scenario's own op stream (diurnal curves, hot-key storms,
// flash crowds, content swarms) and judges every lookup the same way --
// failures only count when the oracle says the lookup MUST have succeeded
// both at issue time and at quiescence.  Lives in its own hp2p_scenario
// target because hp2p_chaos already links hp2p_workload (the generators must
// stay chaos-free).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "chaos/fault_schedule.hpp"
#include "hybrid/params.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/json.hpp"
#include "workload/scenario.hpp"

namespace hp2p::workload {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_peers = 60;
  std::uint32_t hosts = 200;
  /// Fraction of s-peers among the initial population (forced roles).
  double ps = 0.5;
  hybrid::HybridParams params = chaos::chaos_default_params();
  /// The op stream to replay.  Required.
  std::shared_ptr<const Workload> workload;
  /// Chaos stacked under the workload.  Phase starts are RELATIVE to the op
  /// window (the runner shifts them); empty = fault-free run.
  chaos::FaultSchedule schedule;
  /// Recovery time after the later of stream end / schedule end.
  sim::Duration settle = sim::SimTime::seconds(60);
  /// Lenient auditor cadence during the op window (zero = off).  Lenient
  /// passes are churn-safe: any violation they report is real corruption.
  sim::Duration audit_period = sim::SimTime::seconds(15);
  /// Check LookupResult::value against the corpus item's value on every
  /// successful lookup (the swarm's piece-integrity check).
  bool verify_values = false;
  /// Client-side retries for a failed mid-run lookup: the runner re-resolves
  /// an origin (shifted by the attempt number, so a client whose own
  /// attachment is broken does not just retry through itself) and reissues
  /// after `retry_backoff`.  The oracle judges the FINAL attempt -- this
  /// models real clients, which reissue a request that fails while the
  /// overlay is actively healing, without weakening the quiescent verdicts.
  std::uint32_t lookup_retries = 2;
  sim::Duration retry_backoff = sim::SimTime::seconds(2);
  /// Kernel tie-break policy ("" = FIFO, or "shuffle:<seed>"); falls back
  /// to the HP2P_TIEBREAK environment variable like the chaos runner.
  std::string tie_break;
  /// Optional (not owned).
  stats::FlightRecorder* flight = nullptr;
};

struct ScenarioReport {
  std::string scenario;
  std::uint64_t seed = 0;
  // Op-stream accounting.
  std::uint32_t ops = 0;
  std::uint32_t stores = 0;
  std::uint32_t lookups_issued = 0;
  std::uint32_t lookups_succeeded = 0;
  std::uint32_t lookups_failed = 0;
  std::uint32_t retries = 0;  // failed attempts reissued by the client
  std::uint32_t joins = 0;
  std::uint32_t leaves = 0;
  std::uint32_t ops_skipped = 0;  // no eligible actor at fire time
  // Chaos accounting.
  std::uint32_t crashes = 0;
  std::uint32_t chaos_joins = 0;
  // Oracle verdicts.
  std::uint32_t must_failed = 0;  // mid-run MUST lookups that failed
  std::uint32_t wave_must_issued = 0;
  std::uint32_t wave_may_issued = 0;
  std::uint32_t wave_must_failed = 0;
  std::uint32_t value_mismatches = 0;
  std::uint32_t audit_violations = 0;
  bool ring_ok = false;
  bool trees_ok = false;
  // Headline metrics (the bench's per-scenario claim line).
  double availability = 0.0;       // succeeded / issued, mid-run lookups
  double mean_latency_ms = 0.0;    // successful mid-run lookups
  std::uint64_t max_peer_load = 0;  // max answers served by one peer
  double mean_peer_load = 0.0;
  double load_skew = 0.0;  // max / mean (0 when nothing was served)
  std::uint64_t cache_hits = 0;
  std::vector<chaos::ChaosViolation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] stats::JsonValue to_json() const;
};

/// Replays `cfg.workload` and returns the oracle's verdict plus the
/// headline availability/latency/load metrics.
[[nodiscard]] ScenarioReport run_scenario(const ScenarioConfig& cfg);

// --- Named scenario presets -------------------------------------------------
//
// One per shipped scenario, shared verbatim by bench_scenarios and the
// workload-label tests so the bench numbers and the test assertions describe
// the same run.  Each stacks a default chaos schedule under the workload.

/// Diurnal curve with an s-peer crash storm through the midday peak.
[[nodiscard]] ScenarioConfig diurnal_scenario(std::uint64_t seed);

/// Rotating hot-key storm (cache ablation sequel); `caching` toggles the
/// Section 7 scheme so the bench can report max-peer-load on vs off.
[[nodiscard]] ScenarioConfig hot_key_storm_scenario(std::uint64_t seed,
                                                    bool caching);

/// Flash crowd of interest-tagged joins aimed at one segment, under a loss
/// burst.
[[nodiscard]] ScenarioConfig flash_crowd_scenario(std::uint64_t seed);

/// Content swarm over tracker-mode s-networks with a t-peer (= tracker)
/// crash storm mid-download; verify_values is on.
[[nodiscard]] ScenarioConfig swarm_scenario(std::uint64_t seed);

}  // namespace hp2p::workload
