// Experiment harness: builds a complete simulated deployment of the hybrid
// system (underlay -> transport -> overlay), drives the paper's three
// workload phases (build, populate, lookup; optionally a crash phase in
// between) and returns every metric the evaluation section reports.
//
// Every bench binary is a thin loop over RunConfig values feeding
// run_hybrid_experiment(); multi-replica sweeps go through parallel_map().
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "hybrid/params.hpp"
#include "net/underlay.hpp"
#include "proto/metrics.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/profiler.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"
#include "stats/trace.hpp"

namespace hp2p::exp {

/// What every experiment run is configured with: the hybrid (RunConfig) and
/// the Chord and Gnutella baselines (baselines.hpp).  Defaults mirror
/// Section 6; one store or lookup every 5 ms of simulated time.
struct ExperimentConfig {
  std::uint64_t seed = 1;
  std::uint32_t num_peers = 1000;
  std::size_t num_items = 2000;
  std::size_t num_lookups = 2000;
  sim::Duration op_spacing = sim::SimTime::millis(5);
};

/// Everything one hybrid replica needs.  Defaults mirror Section 6:
/// 1,000-node GT-ITM-style underlay, one peer per node, delta = 3.
struct RunConfig : ExperimentConfig {
  hybrid::HybridParams hybrid;

  /// Crash this fraction of peers (no load transfer) after the populate
  /// phase; failure detection runs and the system gets recovery_time before
  /// lookups start (Fig. 5b).
  double crash_fraction = 0.0;
  sim::Duration recovery_time = sim::SimTime::seconds(30);

  /// Run HELLO/ack failure detection for recovery_time before the lookup
  /// phase even without crashes -- exposes steady-state maintenance traffic
  /// (implied when crash_fraction > 0).
  bool failure_detection = false;

  /// Section 5.1 role assignment: t-peer roles go to the fastest hosts.
  bool capacity_sorted_roles = false;
  /// Model per-hop transmission delay from access-link capacities.
  bool model_transmission_delay = false;
  /// Track per-physical-link message copies.
  bool track_link_stress = false;

  /// Fraction of stores/lookups that follow the issuing peer's *interest*
  /// (Section 5.3 workload): an interest-local store publishes content
  /// whose id falls in the interest's anchor segment, and an interest-local
  /// lookup targets content of the issuer's interest.  Only with
  /// hybrid.interest_based assignment does this become segment-local
  /// traffic; under random assignment the same workload crosses the
  /// t-network.  0 = uniform workload.
  double interest_locality = 0.0;

  /// When > 0, lookups are issued from a fixed pool of this many peers
  /// instead of uniformly random origins -- repetitive traffic that lets
  /// per-peer caches (bypass links, Section 5.4) pay off.
  std::size_t lookup_origin_pool = 0;

  /// When > 0, lookup targets follow a Zipf(zipf_exponent) popularity
  /// distribution over the stored items instead of uniform choice.
  double zipf_exponent = 0.0;

  /// Admit the whole t-network before any s-peer joins.  Keeps segment
  /// boundaries (and interest anchors) stable during the build; the
  /// interleaved default stresses the concurrent-join machinery instead.
  bool tpeers_first = false;

  /// Build pacing (simulated time).
  sim::Duration join_spacing = sim::SimTime::millis(25);

  // --- Observability (all optional, none owned) -----------------------------

  /// Span recorder wired into the transport and the hybrid system; every
  /// store/lookup then records a causal span tree (export with
  /// write_catapult(), reduce with collect_critical_path()).
  stats::SpanRecorder* tracer = nullptr;

  /// When > 0, snapshot the harness gauges (live peers, t/s-network sizes,
  /// pending lookups, message counters, event-queue depth) every
  /// `sample_period` of simulated time into RunResult::timeseries.
  sim::Duration sample_period{};

  /// Flight recorder tailing the kernel and the transport (a
  /// FlightRecorderTap); the harness dumps its tail to stderr on the first
  /// failed lookup of the run.
  stats::FlightRecorder* flight = nullptr;

  /// When > 0, run a lenient OverlayAuditor pass every `audit_period` of
  /// simulated time, plus once at the end of every phase.  Setting the
  /// HP2P_AUDIT=1 environment variable enables the same with a 1 s period.
  /// In debug builds (NDEBUG unset) phase-boundary audits always run.
  /// Violations land in RunResult::audit_violations and in `flight`.
  sim::Duration audit_period{};

  /// Dispatch profiler wired into the kernel (component CPU/alloc
  /// attribution), the transport (per-message-type time and bytes) and the
  /// workload phases.  With `sample_period` set it also adds process-level
  /// occupancy gauges (arena slots, event backlog, live heap bytes, VmRSS)
  /// to the sampler -- those gauges are wall-clock-dependent, so they are
  /// only present on profiled runs and never in the byte-identical repro
  /// timeseries.  Export via Profiler::to_json()/write_collapsed() after
  /// the run.  Not owned.
  stats::Profiler* profiler = nullptr;

  /// Any other kernel observer, registered for the whole run after the
  /// profiler (e.g. a test that paces two runs against each other).  Not
  /// owned.
  sim::Observer* observer = nullptr;
};

/// How long one harness phase took, in both host and simulated time.
struct PhaseTiming {
  std::string name;    // "build", "populate", "maintenance", "lookup"
  double wall_ms = 0;  // host wall-clock spent executing the phase
  double sim_ms = 0;   // simulated time the phase covered
};

/// Everything one replica measures.
struct RunResult {
  proto::LookupStats lookups;
  stats::Summary join_latency_ms;
  stats::Summary join_hops;
  stats::Summary lookup_latency_ms;  // successful lookups only
  stats::Summary lookup_hops;
  std::vector<std::size_t> items_per_peer;
  proto::NetworkStats network;
  std::uint64_t max_link_stress = 0;
  /// Largest s-network link degree of any peer (star topologies blow this
  /// up at the roots; degree-capped trees keep it at delta).
  std::size_t max_tree_degree = 0;
  std::size_t num_tpeers = 0;
  std::size_t num_speers = 0;
  std::size_t joins_completed = 0;
  std::uint64_t bypass_installs = 0;
  std::uint64_t bypass_uses = 0;
  /// Largest number of lookups any single peer answered (hot-spot load).
  std::uint64_t max_answers_served = 0;
  /// Lookups answered from caches (Section 7 scheme).
  std::uint64_t cache_hits = 0;
  /// Mean per-physical-link message copies (needs track_link_stress).
  double mean_link_stress = 0;
  /// Mean overlay messages handled (sent + received) per t-peer / s-peer:
  /// the load-imbalance observation motivating Section 5.1.
  double mean_tpeer_traffic = 0;
  double mean_speer_traffic = 0;
  /// Per-phase wall/sim-time timings, in execution order.
  std::vector<PhaseTiming> phases;
  /// Event-kernel counters for the whole replica.
  sim::SimulatorStats sim_stats;
  /// The kernel's slot-arena high-water mark (Simulator::arena_slots()):
  /// the most events ever pending at once.  Left out of
  /// collect_run_result, whose dump the pinned digests hash.
  std::size_t arena_slots = 0;
  /// Gauge samples, present when RunConfig::sample_period > 0.
  std::optional<stats::TimeSeries> timeseries;
  /// Invariant-audit passes executed and total violations found (0 runs
  /// when auditing was not enabled for this replica).
  std::uint64_t audit_runs = 0;
  std::uint64_t audit_violations = 0;
  /// Durability accounting: distinct ids the populate phase stored, and how
  /// many of them some live joined peer still holds at the end of the run.
  std::size_t items_stored = 0;
  std::size_t items_recoverable = 0;
  /// The underlay the replica ran on: routing-table bytes at the end of
  /// the run (stub-domain tables included once queried), host count.
  std::size_t routing_table_bytes = 0;
  std::uint32_t hosts = 0;
  /// Replication machinery counters (all 0 with replication_factor = 1).
  std::uint64_t replica_pushes = 0;
  std::uint64_t re_replication_pushes = 0;
  std::uint64_t anti_entropy_repairs = 0;
  std::uint64_t read_repairs = 0;

  /// Fraction of stored ids still recoverable (1.0 for an empty corpus).
  [[nodiscard]] double data_availability() const {
    if (items_stored == 0) return 1.0;
    return static_cast<double>(items_recoverable) /
           static_cast<double>(items_stored);
  }

  /// Table 2's metric: total peers contacted across all lookups.
  [[nodiscard]] std::uint64_t connum() const {
    return lookups.total_peers_contacted;
  }
};

/// Runs one full replica; deterministic in `config` (including seed).
[[nodiscard]] RunResult run_hybrid_experiment(const RunConfig& config);

/// Tails the kernel and the transport into `flight`: every
/// schedule/fire/cancel and every send/deliver/drop becomes one O(1) ring
/// write.  Registers as an observer of `sim` and of `network` for its
/// lifetime, alongside any other observers; `flight`, `sim` and `network`
/// must outlive it.
class FlightRecorderTap final : public sim::Observer,
                                public proto::NetObserver {
 public:
  FlightRecorderTap(stats::FlightRecorder& flight, sim::Simulator& sim,
                    proto::OverlayNetwork& network)
      : flight_(flight), sim_(sim), network_(network) {
    sim_.add_observer(this);
    network_.add_observer(this);
  }
  ~FlightRecorderTap() override {
    sim_.remove_observer(this);
    network_.remove_observer(this);
  }
  FlightRecorderTap(const FlightRecorderTap&) = delete;
  FlightRecorderTap& operator=(const FlightRecorderTap&) = delete;

  /// The kernel trace only: frames are not recorded.
  [[nodiscard]] unsigned hooks() const override { return kTrace; }
  void on_event(const sim::TraceEvent& e) override;
  void on_message(const proto::NetTraceEvent& e) override;

 private:
  stats::FlightRecorder& flight_;
  sim::Simulator& sim_;
  proto::OverlayNetwork& network_;
};

/// Maps `fn` over `configs` on a thread pool (replicas are independent).
/// Results are constructed in place (no default-constructibility needed).
/// If a worker throws, remaining work is abandoned and the first exception
/// is rethrown here after all threads have joined.
template <typename Config, typename Fn>
auto parallel_map(const std::vector<Config>& configs, Fn fn,
                  unsigned max_threads = 0) {
  using Result = decltype(fn(configs.front()));
  std::vector<Result> results;
  if (configs.empty()) return results;
  std::vector<std::optional<Result>> slots(configs.size());
  unsigned workers = max_threads != 0 ? max_threads
                                      : std::thread::hardware_concurrency();
  workers = std::max(1u, std::min<unsigned>(
                             workers, static_cast<unsigned>(configs.size())));
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= configs.size() || failed.load()) return;
        try {
          slots[i].emplace(fn(configs[i]));
        } catch (...) {
          const std::lock_guard<std::mutex> lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

/// Averages a per-replica metric.
[[nodiscard]] double mean_of(const std::vector<double>& xs);

}  // namespace hp2p::exp
