// Overlay invariant auditor.
//
// The paper argues correctness from structural invariants it never checks
// mechanically: the t-network is a consistent Chord ring whose positions
// never change under graceful churn, every s-network is a tree rooted at its
// t-peer with bounded degree, floods are TTL-bounded, and each stored item
// lives in the s-network responsible for its segment.  OverlayAuditor turns
// those prose invariants into executable checks: it walks the full system
// state and produces structured violation reports (peer, invariant name,
// expected/actual).
//
// Two modes:
//   * lenient (default) -- safe to run *during* churn: invariant families
//     that protocol transitions legitimately perturb (ring pointers while a
//     join/leave triangle is in flight, data placement while transfers are
//     on the wire) are skipped while such a transition is observable, and
//     the skip is recorded in the report.  A lenient audit that reports a
//     violation has found real corruption.
//   * strict -- the quiescent contract: every family checked exactly.  Used
//     by tests after the event queue drains.
//
// Deterministic by construction: all walks iterate ordered containers
// (the server registry, sorted children copies), draw no randomness, and
// schedule at fixed periods -- an audited run is byte-identical to an
// unaudited one apart from the audit events themselves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "hybrid/hybrid_system.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/json.hpp"

namespace hp2p::audit {

/// One invariant violation: which invariant, where, and the disagreement.
struct Violation {
  const char* invariant = "";  // stable snake_case name (string literal)
  PeerIndex peer = kNoPeer;    // peer the violation anchors to
  std::string expected;
  std::string actual;
  std::string detail;  // free-form context (segment bounds, item id, ...)

  [[nodiscard]] stats::JsonValue to_json() const;
};

/// Result of one full audit pass.
struct AuditReport {
  sim::SimTime at{};
  std::uint64_t checks_run = 0;
  std::vector<Violation> violations;
  /// Invariant families skipped this pass (lenient mode, churn in flight).
  std::vector<std::string> skipped;
  bool truncated = false;  // hit AuditOptions::max_violations

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] bool has(std::string_view invariant) const;
  [[nodiscard]] std::size_t count(std::string_view invariant) const;
  /// Distinct invariant names present, sorted.
  [[nodiscard]] std::vector<std::string> invariants() const;
  [[nodiscard]] stats::JsonValue to_json() const;
};

struct AuditOptions {
  /// Strict = quiescent contract (see file comment).
  bool strict = false;
  /// Stop collecting after this many violations (the report notes
  /// truncation); keeps a badly corrupted state from flooding memory.
  std::size_t max_violations = 256;
};

/// Walks a HybridSystem + its transport and verifies the named invariants.
///
/// Can run on demand (run()), or as a periodic sim event (set_period +
/// ensure_running; the event re-arms itself only while other work remains,
/// so it never keeps Simulator::run from draining).  Registers itself as one
/// of the system's flood observers, to bound in-flight flood TTLs, for its
/// lifetime; auditors may nest.
class OverlayAuditor : private hybrid::FloodObserver {
 public:
  OverlayAuditor(hybrid::HybridSystem& system, proto::OverlayNetwork& network,
                 sim::Simulator& sim, AuditOptions options = {});
  ~OverlayAuditor() override;

  OverlayAuditor(const OverlayAuditor&) = delete;
  OverlayAuditor& operator=(const OverlayAuditor&) = delete;

  /// Runs one full audit pass now.
  AuditReport run();

  /// Periodic mode: audit every `period` of sim time while the event queue
  /// has other work.  Call ensure_running() (again) after scheduling new
  /// work, before Simulator::run -- same contract as TimeSeriesSampler.
  void set_period(sim::Duration period) { period_ = period; }
  void ensure_running();

  /// Violations (and a summary per pass) also land in `recorder`, so a
  /// post-mortem flight dump shows them in causal order.  Not owned.
  void set_flight_recorder(stats::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  [[nodiscard]] const AuditReport& last_report() const { return last_; }
  /// Most recent report that contained violations (empty when none ever
  /// did) -- the one worth printing when total_violations() is nonzero but
  /// the final pass came back clean.
  [[nodiscard]] const AuditReport& last_failing_report() const {
    return last_failing_;
  }

 private:
  void tick();
  void on_flood_wave(PeerIndex at, unsigned ttl) override;

  // One check family each; all append to `report`.
  void check_ring(AuditReport& report);
  void check_fingers(AuditReport& report);
  void check_trees(AuditReport& report);
  void check_placement(AuditReport& report);
  void check_replication(AuditReport& report);
  void check_network(AuditReport& report);

  /// True while some registered t-peer is visibly mid-transition (mutex
  /// held, dead, or not joined) -- lenient mode skips ring-structure
  /// families then.
  [[nodiscard]] bool ring_unsettled() const;
  /// Degree limit accepts_child enforces for this peer (capacity-scaled).
  [[nodiscard]] unsigned degree_limit(PeerIndex p) const;

  void add(AuditReport& report, const char* invariant, PeerIndex peer,
           std::string expected, std::string actual, std::string detail = {});

  hybrid::HybridSystem& sys_;
  proto::OverlayNetwork& net_;
  sim::Simulator& sim_;
  AuditOptions options_;
  stats::FlightRecorder* flight_ = nullptr;

  sim::Duration period_{};
  bool armed_ = false;
  sim::TimerId tick_id_;

  /// TTL-bound violations observed between passes (flood observer fires on
  /// protocol events, not audit passes); drained into the next report.
  std::vector<Violation> pending_flood_;
  std::uint64_t flood_waves_seen_ = 0;

  std::uint64_t runs_ = 0;
  std::uint64_t total_violations_ = 0;
  AuditReport last_;
  AuditReport last_failing_;
};

}  // namespace hp2p::audit
