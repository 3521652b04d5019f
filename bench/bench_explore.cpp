// State-space census for the verify/ interleaving explorer: runs the
// exhaustive 4-peer join+crash+lookup fixture with and without sleep-set
// pruning, plus a budgeted 8-peer random-walk sweep, and reports how much
// of the naive enumeration partial-order reduction and terminal-state
// dedup eliminate.  Mirrored into BENCH_explore.json for the CI gate.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "stats/table.hpp"
#include "verify/explorer.hpp"
#include "verify/scenario.hpp"

using namespace hp2p;

namespace {

verify::ScenarioConfig exhaustive_config() {
  verify::ScenarioConfig cfg;
  cfg.num_tpeers = 2;
  cfg.num_speers = 2;
  cfg.num_items = 2;
  cfg.num_lookups = 1;
  cfg.crash_peer = 4;
  cfg.crash_at = sim::SimTime::millis(2700);
  cfg.lookup_at = sim::SimTime::millis(2750);
  cfg.horizon = sim::SimTime::millis(3000);
  return cfg;
}

verify::ScenarioConfig walk_config() {
  verify::ScenarioConfig cfg;
  cfg.num_tpeers = 4;
  cfg.num_speers = 4;
  cfg.num_items = 3;
  cfg.num_lookups = 2;
  cfg.crash_peer = 7;
  cfg.window = sim::SimTime::millis(1);
  return cfg;
}

void census_row(stats::Table& table, bench::Reporter& reporter,
                const char* mode, const verify::ExploreResult& r) {
  table.row()
      .cell(mode)
      .cell(r.runs)
      .cell(r.completed_runs)
      .cell(r.pruned_runs)
      .cell(r.sleeping_branches)
      .cell(r.decision_points)
      .cell(static_cast<std::uint64_t>(r.max_depth))
      .cell(r.distinct_states)
      .cell(r.dedup_hits)
      .cell(r.violating_runs);
  const std::string p = std::string("explore.") + mode + ".";
  reporter.metrics().set(p + "runs", stats::JsonValue{r.runs});
  reporter.metrics().set(p + "completed_runs",
                         stats::JsonValue{r.completed_runs});
  reporter.metrics().set(p + "pruned_runs", stats::JsonValue{r.pruned_runs});
  reporter.metrics().set(p + "sleeping_branches",
                         stats::JsonValue{r.sleeping_branches});
  reporter.metrics().set(p + "decision_points",
                         stats::JsonValue{r.decision_points});
  reporter.metrics().set(
      p + "max_depth",
      stats::JsonValue{static_cast<std::uint64_t>(r.max_depth)});
  reporter.metrics().set(p + "distinct_states",
                         stats::JsonValue{r.distinct_states});
  reporter.metrics().set(p + "dedup_hits", stats::JsonValue{r.dedup_hits});
  reporter.metrics().set(p + "violating_runs",
                         stats::JsonValue{r.violating_runs});
}

}  // namespace

int main() {
  auto scale = bench::scale_from_env();
  bench::Reporter reporter{"explore", scale.seed};
  std::printf("state-space census: exhaustive 4-peer fixture (POR vs naive) "
              "+ budgeted 8-peer random walks\n");

  verify::ExploreOptions opts;
  opts.max_runs = 200000;
  const auto cfg = exhaustive_config();
  const auto por = verify::explore(cfg, opts);
  opts.sleep_sets = false;
  const auto naive = verify::explore(cfg, opts);
  const auto walks = verify::random_walks(walk_config(), 200, scale.seed);

  stats::Table table{{"mode", "runs", "completed", "pruned", "sleeping",
                      "decisions", "max_depth", "distinct", "dedup",
                      "violating"}};
  census_row(table, reporter, "por", por);
  census_row(table, reporter, "naive", naive);
  census_row(table, reporter, "walks", walks);
  reporter.print_table("state_space_census", table);

  const double pruned_frac =
      naive.completed_runs == 0
          ? 0.0
          : 1.0 - static_cast<double>(por.runs) /
                      static_cast<double>(naive.completed_runs);
  std::printf("POR + dedup eliminated %.1f%% of the naive enumeration\n",
              100.0 * pruned_frac);
  reporter.metrics().set("explore.pruned_fraction",
                         stats::JsonValue{pruned_frac});

  // The census is also a gate: every explored interleaving must be clean,
  // pruning must drop no terminal state and must cut >= 50% of the naive
  // enumeration, and exhaustion must actually terminate.
  bool ok = reporter.write();
  if (por.budget_exhausted || naive.budget_exhausted) {
    std::printf("FAIL: exhaustive fixture did not terminate\n");
    ok = false;
  }
  if (por.violating_runs != 0 || naive.violating_runs != 0 ||
      walks.violating_runs != 0) {
    std::printf("FAIL: explorer found violations\n");
    ok = false;
  }
  if (por.state_hashes != naive.state_hashes) {
    std::printf("FAIL: pruning dropped a distinct terminal state\n");
    ok = false;
  }
  if (por.runs * 2 > naive.completed_runs) {
    std::printf("FAIL: pruning eliminated less than half of the naive "
                "enumeration\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
