// One simulated world, and the oracle that judges it.
//
// World is the deployment every run builds -- the experiment harness, the
// chaos runner, the workload scenario runner and the verify scenario: the
// substrate plus a HybridSystem with server peer 0.  Judge holds what the
// three oracle-judged runners share: the ReferenceModel, the violations
// found, and the judgement phases each runner calls in its own order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/overlay_auditor.hpp"
#include "chaos/reference_model.hpp"
#include "hybrid/hybrid_system.hpp"
#include "proto/overlay_network.hpp"
#include "sim/tie_break.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/json.hpp"

namespace hp2p::chaos {

/// t-peers among `num_peers` forced roles at s-peer fraction `ps`: the
/// rounded complement, and always at least one.
[[nodiscard]] std::uint32_t tpeer_count(std::uint32_t num_peers, double ps);

class World : public proto::Substrate {
 public:
  /// The underlay comes from `topo_rng`; the system draws from
  /// `system_rng`, which must outlive the world (one RNG may serve both).
  World(Rng& topo_rng, Rng& system_rng, std::uint32_t hosts,
        const hybrid::HybridParams& params,
        proto::OverlayNetworkOptions net_opts = {});

  /// Equal-timestamp events fire in a seeded random order when `spec` (or,
  /// if empty, the HP2P_TIEBREAK environment variable) is
  /// `shuffle:<seed>`; otherwise the kernel keeps FIFO order.
  void install_tie_break(const std::string& spec);

  /// Round-robin host for the next joiner, skipping the server's host 0.
  HostIndex next_host();

  /// Schedules `num_peers` forced-role joins -- the first `num_tpeers` as
  /// t-peers -- `spacing` apart from t = spacing, on next_host() hosts.
  void schedule_joins(std::uint32_t num_peers, std::uint32_t num_tpeers,
                      sim::Duration spacing);

  /// Live, joined peers other than the server, in index order.
  [[nodiscard]] std::vector<PeerIndex> live_nonserver_peers() const;

  hybrid::HybridSystem system;

 private:
  std::unique_ptr<sim::ShuffleTieBreak> shuffler_;
  std::uint32_t host_cursor_ = 0;
};

struct ChaosViolation {
  const char* kind = "";  // stable name (string literal)
  std::string detail;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  [[nodiscard]] stats::JsonValue to_json() const;
};

struct TrackedLookup {
  std::uint32_t item = 0;  // the corpus item asked for
  DataId id{};
  PeerIndex origin = kNoPeer;  // until issued
  bool must_at_issue = false;
  bool done = false;
  proto::LookupResult result;
};

struct Tally {
  std::uint32_t issued = 0;
  std::uint32_t succeeded = 0;
  std::uint32_t failed = 0;
  std::uint32_t must_issued = 0;
  std::uint32_t may_issued = 0;
  std::uint32_t must_failed = 0;
  std::uint32_t may_failed = 0;
};

struct QuiescentVerdict {
  bool ring_ok = false;
  bool trees_ok = false;
  std::uint32_t audit_violations = 0;
};

class Judge {
 public:
  /// Each violation is also stamped into `flight` (optional, not owned)
  /// as a `flight_kind` record.
  explicit Judge(World& world, stats::FlightRecorder* flight = nullptr,
                 const char* flight_kind = "");

  void add(const char* kind, std::string detail, std::uint64_t a = 0,
           std::uint64_t b = 0);
  /// One `kind` violation per finding in `report`.
  void add_audit(const char* kind, const audit::AuditReport& report);

  /// Issues `t` from `origin`; MUST at issue only requires the data to be
  /// live.  `t` must stay put until the lookup completes.
  void track(TrackedLookup& t, PeerIndex origin, DataId id);

  /// Post-hoc verdict on issued `what` lookups: one never completed is
  /// `lookup_wedged`; a failure is a `must_kind` violation only when MUST
  /// held at issue and the oracle still says MUST now, so transient damage
  /// the hardening must ride out and losses the faults made legitimate do
  /// not count.  `on_success` sees each successful lookup's index.
  Tally judge_tracked(const std::vector<TrackedLookup>& lookups,
                      const char* what, const char* must_kind,
                      const std::function<void(std::size_t)>& on_success = {});

  /// verify_ring, verify_trees and one pass of `auditor`, or of a fresh
  /// strict auditor when none is given.
  QuiescentVerdict judge_quiescent(audit::OverlayAuditor* auditor = nullptr);

  /// MUST/MAY wave: each recorded store looked up from its storing origin
  /// (dead origins skipped when asked), then `top_up(k)` for k = lookups so
  /// far until it returns nothing; each is classified before it is sent.
  /// Runs the kernel for lookup_timeout + `slack`, then judges.
  using WaveLookup = std::pair<PeerIndex, DataId>;
  Tally oracle_wave(
      sim::Duration slack, bool skip_dead_origins,
      const std::function<std::optional<WaveLookup>(std::uint32_t)>& top_up =
          {});

  ReferenceModel model;
  std::vector<ChaosViolation> violations;

 private:
  World& world_;
  stats::FlightRecorder* flight_;
  const char* flight_kind_;
};

}  // namespace hp2p::chaos
