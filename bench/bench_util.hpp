// Shared helpers for the bench binaries: the experiments driver,
// bench_scale, bench_explore and micro_kernel.
#pragma once

#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "exp/harness.hpp"
#include "stats/json.hpp"
#include "stats/metrics.hpp"
#include "stats/profiler.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace hp2p::bench {

/// Experiment scale, overridable from the environment so the same binaries
/// serve both a quick smoke pass and a paper-scale run:
///   HP2P_PEERS=1000 HP2P_ITEMS=5000 HP2P_LOOKUPS=5000 HP2P_SEEDS=3
struct Scale {
  std::uint32_t peers;
  std::size_t items;
  std::size_t lookups;
  std::size_t replicas;
  std::uint64_t seed;
};

[[nodiscard]] inline Scale scale_from_env() {
  Scale s{};
  s.peers = static_cast<std::uint32_t>(env_or("HP2P_PEERS", std::int64_t{400}));
  s.items = static_cast<std::size_t>(env_or("HP2P_ITEMS", std::int64_t{1000}));
  s.lookups = static_cast<std::size_t>(env_or("HP2P_LOOKUPS", std::int64_t{1000}));
  s.replicas = static_cast<std::size_t>(env_or("HP2P_SEEDS", std::int64_t{1}));
  s.seed = static_cast<std::uint64_t>(env_or("HP2P_SEED", std::int64_t{42}));
  return s;
}

/// HP2P_TRACE=1 turns on causal tracing + gauge sampling in the benches
/// that support it (the run additionally writes TRACE_<name>.json).
[[nodiscard]] inline bool trace_from_env() {
  return env_or("HP2P_TRACE", std::int64_t{0}) != 0;
}

/// HP2P_PROFILE=1 attaches a stats::Profiler to the benches that support it:
/// the report gains a `profile` section and the run writes a collapsed-stack
/// file (PROFILE_<name>.collapsed) for flamegraph.pl / speedscope.
[[nodiscard]] inline bool profile_from_env() {
  return env_or("HP2P_PROFILE", std::int64_t{0}) != 0;
}

[[nodiscard]] inline exp::RunConfig base_config(const Scale& s,
                                                std::size_t replica = 0) {
  exp::RunConfig c;
  c.seed = s.seed + replica * 1000003;
  c.num_peers = s.peers;
  c.num_items = s.items;
  c.num_lookups = s.lookups;
  c.hybrid.delta = 3;  // as in the paper's simulations
  return c;
}

inline void print_header(const char* figure, const char* claim,
                         const Scale& s) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", figure);
  std::printf("paper claim: %s\n", claim);
  std::printf("scale: %u peers, %zu items, %zu lookups, %zu replica(s), "
              "seed %llu\n",
              s.peers, s.items, s.lookups, s.replicas,
              static_cast<unsigned long long>(s.seed));
  std::printf("==============================================================="
              "=================\n");
}

/// Formats a number for use inside a dotted metric name ('.' would nest, so
/// the decimal point becomes 'p': 0.4 -> "0p4").
[[nodiscard]] inline std::string metric_num(double v, int precision = 1) {
  std::string s = stats::format_fixed(v, precision);
  for (char& c : s) {
    if (c == '.') c = 'p';
  }
  return s;
}

/// Machine-readable run report, written next to the ASCII output as
/// BENCH_<name>.json.  Schema (version 5; v1 fields are unchanged, v2 adds
/// the always-present `timeseries` array, v3 adds the `replication.*`
/// namespace to per-run metrics -- replica/re-replication/anti-entropy/
/// read-repair counters plus items_stored / items_recoverable /
/// data_availability -- emitted by collect_run_result for every run; v4
/// adds the always-present `run_info` provenance object and, on profiled
/// runs (HP2P_PROFILE=1), the optional `profile` section exported by
/// stats::Profiler::to_json(); v5 adds the always-present `scenarios`
/// array -- one ScenarioReport::to_json() object per production-traffic
/// scenario executed by the run, empty for benches that run none):
///
///   {
///     "schema_version": 5,
///     "bench": "<name>",
///     "seed": <int>,
///     "run_info": {                   // provenance, never feeds metrics
///       "wall_unix_s": <int>,         // host clock at write() time
///       "git_describe": "<str>",      // build tree version ("unknown" if
///                                     //   the build ran outside git)
///       "host_threads": <int>,        // std::thread::hardware_concurrency
///       "peers": <int>               // headline scale of this run
///     },
///     "config": { ... },              // nested; scale + bench-specific knobs
///     "metrics": { ... },             // nested MetricsRegistry export
///     "tables": [                     // the ASCII tables, verbatim cells
///       {"title": "...", "columns": ["..."], "rows": [["..."]]}
///     ],
///     "timeseries": [                 // sampled gauges (empty when not run)
///       {"name": "...", "period_ms": ..., "t_ms": [...], "series": {...}}
///     ],
///     "scenarios": [                  // per-scenario verdicts (empty when
///       {"scenario": "...", ...}      //   the bench runs no scenarios)
///     ],
///     "profile": { ... }              // only on HP2P_PROFILE=1 runs
///   }
///
/// Benches populate config()/metrics() through the registry API and print
/// each stats::Table through print_table(); write() comes last.  Files are
/// written atomically (temp file + rename) so a crashed or concurrent run
/// never leaves a truncated report behind.
class Reporter {
 public:
  static constexpr std::int64_t kSchemaVersion = 5;

  explicit Reporter(std::string name, std::uint64_t seed = 0)
      : name_(std::move(name)), seed_(seed) {}

  Reporter(std::string name, const Scale& s)
      : Reporter(std::move(name), s.seed) {
    set_scale(s);
  }

  /// Records the scale in `config` and `run_info.peers`; an experiment that
  /// resizes its scale calls this again with the resized one.
  void set_scale(const Scale& s) {
    peers_ = s.peers;
    config_.set("peers", stats::JsonValue{std::uint64_t{s.peers}});
    config_.set("items", stats::JsonValue{static_cast<std::uint64_t>(s.items)});
    config_.set("lookups",
                stats::JsonValue{static_cast<std::uint64_t>(s.lookups)});
    config_.set("replicas",
                stats::JsonValue{static_cast<std::uint64_t>(s.replicas)});
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  stats::MetricsRegistry& config() { return config_; }
  stats::MetricsRegistry& metrics() { return metrics_; }

  /// Prints `table` to stdout and mirrors it into the report.
  void print_table(const std::string& title, const stats::Table& table) {
    table.print(std::cout);
    add_table(title, table);
  }

  /// Mirrors one printed table into the report (cells verbatim).
  void add_table(const std::string& title, const stats::Table& table) {
    stats::JsonValue t = stats::JsonValue::object();
    t.set("title", stats::JsonValue{title});
    stats::JsonValue columns = stats::JsonValue::array();
    for (const std::string& h : table.headers()) {
      columns.push_back(stats::JsonValue{h});
    }
    t.set("columns", std::move(columns));
    stats::JsonValue rows = stats::JsonValue::array();
    for (std::size_t i = 0; i < table.num_rows(); ++i) {
      stats::JsonValue row = stats::JsonValue::array();
      for (const std::string& c : table.row_cells(i)) {
        row.push_back(stats::JsonValue{c});
      }
      rows.push_back(std::move(row));
    }
    t.set("rows", std::move(rows));
    tables_.push_back(std::move(t));
  }

  /// Embeds one sampled-gauge block (RunResult::timeseries) in the report.
  void add_timeseries(const stats::TimeSeries& ts) {
    timeseries_.push_back(ts.to_json());
  }

  /// Embeds the profiler export (stats::Profiler::to_json()) as the
  /// report's `profile` section (schema v4, HP2P_PROFILE=1 runs only).
  void set_profile(stats::JsonValue profile) { profile_ = std::move(profile); }

  /// Appends one production-traffic scenario verdict
  /// (workload::ScenarioReport::to_json()) to the v5 `scenarios` array.
  void add_scenario(stats::JsonValue scenario) {
    scenarios_.push_back(std::move(scenario));
  }

  /// Folds in a report another process of the same bench wrote (its own
  /// Reporter's to_json()): the metrics, tables, timeseries, scenarios and
  /// profile.  False when `report` carries no metrics object.
  bool merge(const stats::JsonValue& report) {
    const stats::JsonValue* metrics = report.find("metrics");
    if (metrics == nullptr || !metrics->is_object()) return false;
    const auto merged = stats::MetricsRegistry::from_json(*metrics);
    for (const auto& [name, value] : merged.entries()) {
      metrics_.set(name, value);
    }
    const auto append = [&report](std::string_view key,
                                  std::vector<stats::JsonValue>& to) {
      const stats::JsonValue* list = report.find(key);
      if (list != nullptr && list->is_array()) {
        to.insert(to.end(), list->items().begin(), list->items().end());
      }
    };
    append("tables", tables_);
    append("timeseries", timeseries_);
    append("scenarios", scenarios_);
    if (const stats::JsonValue* profile = report.find("profile")) {
      profile_ = *profile;
    }
    return true;
  }

  [[nodiscard]] stats::JsonValue to_json() const {
    stats::JsonValue root = stats::JsonValue::object();
    root.set("schema_version", stats::JsonValue{kSchemaVersion});
    root.set("bench", stats::JsonValue{name_});
    root.set("seed", stats::JsonValue{seed_});
    // Provenance only: nothing under run_info may feed a metric or a table,
    // so host-dependent values here never threaten run determinism.
    stats::JsonValue run_info = stats::JsonValue::object();
    run_info.set("wall_unix_s",
                 stats::JsonValue{
                     static_cast<std::uint64_t>(std::time(nullptr))});
#ifdef HP2P_GIT_DESCRIBE
    run_info.set("git_describe", stats::JsonValue{std::string{
                                     HP2P_GIT_DESCRIBE}});
#else
    run_info.set("git_describe", stats::JsonValue{std::string{"unknown"}});
#endif
    run_info.set("host_threads",
                 stats::JsonValue{
                     std::uint64_t{std::thread::hardware_concurrency()}});
    run_info.set("peers", stats::JsonValue{std::uint64_t{peers_}});
    root.set("run_info", std::move(run_info));
    root.set("config", config_.to_json());
    root.set("metrics", metrics_.to_json());
    stats::JsonValue tables = stats::JsonValue::array();
    for (const stats::JsonValue& t : tables_) tables.push_back(t);
    root.set("tables", std::move(tables));
    stats::JsonValue timeseries = stats::JsonValue::array();
    for (const stats::JsonValue& ts : timeseries_) timeseries.push_back(ts);
    root.set("timeseries", std::move(timeseries));
    stats::JsonValue scenarios = stats::JsonValue::array();
    for (const stats::JsonValue& sc : scenarios_) scenarios.push_back(sc);
    root.set("scenarios", std::move(scenarios));
    if (profile_) root.set("profile", *profile_);
    return root;
  }

  /// Writes BENCH_<name>.json into the working directory (or `path`),
  /// atomically: the JSON lands in `path + ".tmp"` first and is renamed
  /// over `path` only after a clean close.
  bool write() const { return write("BENCH_" + name_ + ".json"); }
  bool write(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out{tmp};
      if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", tmp.c_str());
        return false;
      }
      out << to_json().dump(2) << '\n';
      out.close();
      if (!out) {
        std::fprintf(stderr, "warning: short write to %s\n", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::fprintf(stderr, "warning: cannot rename %s to %s\n", tmp.c_str(),
                   path.c_str());
      std::remove(tmp.c_str());
      return false;
    }
    std::printf("report: %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  std::uint32_t peers_ = 0;
  stats::MetricsRegistry config_;
  stats::MetricsRegistry metrics_;
  std::vector<stats::JsonValue> tables_;
  std::vector<stats::JsonValue> timeseries_;
  std::vector<stats::JsonValue> scenarios_;
  std::optional<stats::JsonValue> profile_;
};

/// Uniform HP2P_PROFILE=1 epilogue for a profiled run: prints the
/// per-component attribution table (mirrored into the report), embeds the
/// `profile` section, and writes the collapsed-stack file next to the JSON.
inline void report_profile(Reporter& reporter, const stats::Profiler& prof) {
  stats::Table table{{"component", "events", "cpu_ms", "allocs", "alloc_KB"}};
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto total =
        prof.component_total(static_cast<sim::Component>(c));
    if (total.enters == 0 && total.cpu_ns == 0) continue;
    table.row()
        .cell(std::string{
            sim::component_name(static_cast<sim::Component>(c))})
        .cell(total.enters)
        .cell(static_cast<double>(total.cpu_ns) / 1e6, 2)
        .cell(total.allocs)
        .cell(static_cast<double>(total.alloc_bytes) / 1024.0, 1);
  }
  reporter.print_table("profile_components", table);
  std::printf("profile: dispatch %.2f ms, attributed %.2f ms (%.1f%%)\n",
              static_cast<double>(prof.dispatch_ns_total()) / 1e6,
              static_cast<double>(prof.attributed_ns()) / 1e6,
              prof.dispatch_ns_total() > 0
                  ? 100.0 * static_cast<double>(prof.attributed_ns()) /
                        static_cast<double>(prof.dispatch_ns_total())
                  : 0.0);
  reporter.set_profile(prof.to_json());
  const std::string collapsed = "PROFILE_" + reporter.name() + ".collapsed";
  if (prof.write_collapsed(collapsed)) {
    std::printf("profile: %s\n", collapsed.c_str());
  }
}

}  // namespace hp2p::bench
