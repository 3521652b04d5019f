// End-to-end chaos run: build a hybrid system, store a corpus, apply a
// FaultSchedule through the FaultScheduleEngine, then check the outcome
// against the model-based oracle (chaos::ReferenceModel) and a strict
// OverlayAuditor pass.  Everything is a pure function of the config, so a
// failing (config, schedule) pair replays byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/world.hpp"
#include "hybrid/params.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/json.hpp"

namespace hp2p::chaos {

/// Hybrid parameters tuned for chaos runs: tree s-networks, ring routing,
/// fast failure detection, generous flood reach, and both hardening knobs
/// (re-flood + ring retry) on.  Caching/bypass stay off so the oracle's
/// reachability model matches the protocol exactly.
[[nodiscard]] hybrid::HybridParams chaos_default_params();

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_peers = 60;
  std::uint32_t hosts = 200;
  /// Fraction of s-peers among the initial population (roles are forced, so
  /// this is exact up to rounding; at least one t-peer always joins).
  double ps = 0.5;
  std::uint32_t num_items = 100;
  /// Quiescent oracle wave size; must be >= num_items (each stored item is
  /// looked up once from its storing peer, the remainder from random
  /// origins).
  std::uint32_t num_lookups = 150;
  /// Lookups issued while the schedule is running (0 = none); failures are
  /// judged post-hoc and only count as violations when the oracle says MUST
  /// both at issue time and after recovery.
  std::uint32_t storm_lookups = 0;
  hybrid::HybridParams params = chaos_default_params();
  /// Kernel tie-break policy, `""` (kernel FIFO default) or
  /// `shuffle:<seed>` (seeded random pick among equal-timestamp events).
  /// Defaults to the HP2P_TIEBREAK environment variable so ordinary soaks
  /// can be re-run shuffled without recompiling; every outcome must still
  /// pass the oracle -- a tie-order-dependent protocol bug fails the soak.
  std::string tie_break;
  FaultSchedule schedule;
  /// Recovery time simulated after the last phase before the oracle runs.
  sim::Duration settle = sim::SimTime::seconds(60);
  /// Optional (not owned): receives phase/crash/join/violation events.
  stats::FlightRecorder* flight = nullptr;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  std::uint32_t crashes = 0;
  std::uint32_t joins = 0;
  std::uint32_t items_stored = 0;
  std::uint32_t items_live = 0;
  std::uint32_t must_issued = 0;
  std::uint32_t may_issued = 0;
  std::uint32_t must_failed = 0;
  std::uint32_t may_failed = 0;
  std::uint32_t storm_issued = 0;
  std::uint32_t storm_failed = 0;
  std::uint32_t audit_violations = 0;
  bool ring_ok = false;
  bool trees_ok = false;
  std::vector<ChaosViolation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] stats::JsonValue to_json() const;
};

/// Runs one full chaos scenario and returns the oracle's verdict.
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& cfg);

}  // namespace hp2p::chaos
