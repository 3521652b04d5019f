// Collectors that flatten the harness's counter structs into a
// stats::MetricsRegistry under conventional dotted prefixes:
//
//   config.*  RunConfig  (collect_run_config)
//   <all>     RunResult  (collect_run_result: lookup.* LookupStats, net.*
//                         NetworkStats incl. per-class, sim.* SimulatorStats,
//                         phase.*, summaries and counters in one call)
//
// Benches hand the resulting registry to bench::Reporter, which nests it
// into the "metrics" object of BENCH_<name>.json.
#pragma once

#include <string>

#include "exp/harness.hpp"
#include "stats/metrics.hpp"

namespace hp2p::exp {

void collect_run_config(stats::MetricsRegistry& reg, const std::string& prefix,
                        const RunConfig& c);

/// Everything a replica measured, under `prefix` (empty = top level).
void collect_run_result(stats::MetricsRegistry& reg, const std::string& prefix,
                        const RunResult& r);

}  // namespace hp2p::exp
