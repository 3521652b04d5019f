// Heavy exploration fixtures (ctest label: explore).  The exhaustive
// fixture model-checks a 4-peer join+crash+lookup world over every legal
// event ordering and measures how much work sleep-set pruning plus
// terminal-state dedup save against naive enumeration; the budgeted
// fixture random-walks an 8-peer world too large to exhaust.
#include <gtest/gtest.h>

#include <string>

#include "common/hashing.hpp"
#include "verify/explorer.hpp"
#include "verify/scenario.hpp"

namespace hp2p::verify {
namespace {

/// 2 t-peers + 2 s-peers, an s-peer crash at 2.7s and a storm lookup at
/// 2.75s, horizon 3s: small enough that naive enumeration terminates,
/// large enough to clear 1,000 interleavings by a wide margin.
ScenarioConfig exhaustive_config() {
  ScenarioConfig cfg;
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

TEST(Exhaustive, FifoOutcomeDigestIsPinned) {
  // The exhaustive fixture's kernel-FIFO outcome (state hash, event count,
  // violations): any change to how run_scenario builds, drives or judges
  // its world shows up here.
  const std::string dump = run_scenario(exhaustive_config(), nullptr).dump();
  EXPECT_EQ(fnv1a64(dump), 0xaa8acd0c1dd0da2bull)
      << "digest 0x" << std::hex << fnv1a64(dump) << std::dec << "\n"
      << dump;
}

TEST(Exhaustive, FourPeerJoinCrashLookupIsOrderInsensitive) {
  const auto cfg = exhaustive_config();
  ExploreOptions opts;
  opts.max_runs = 200000;

  const auto por = explore(cfg, opts);
  opts.sleep_sets = false;
  const auto naive = explore(cfg, opts);

  // Terminates, and explores well past the 1,000-interleaving bar.
  ASSERT_FALSE(por.budget_exhausted);
  ASSERT_FALSE(naive.budget_exhausted);
  EXPECT_GE(naive.completed_runs, 1000u);

  // Every interleaving passes strict audit + the reference-model oracle.
  EXPECT_EQ(por.violating_runs, 0u)
      << (por.violation_details.empty() ? std::string()
                                        : por.violation_details[0]);
  EXPECT_EQ(naive.violating_runs, 0u)
      << (naive.violation_details.empty() ? std::string()
                                          : naive.violation_details[0]);

  // Pruning soundness: the same set of distinct terminal states.
  EXPECT_EQ(por.state_hashes, naive.state_hashes);

  // Pruning power: POR + dedup cut at least half of the naive enumeration
  // (in practice ~98% -- the bound is deliberately loose so protocol
  // changes that shift the tie structure don't flake the suite).
  EXPECT_LE(por.runs * 2, naive.completed_runs)
      << "sleep sets pruned less than half of the naive state space";

  std::cout << "[explore] por runs=" << por.runs
            << " completed=" << por.completed_runs
            << " pruned=" << por.pruned_runs
            << " sleeping=" << por.sleeping_branches
            << " | naive runs=" << naive.runs
            << " | distinct states=" << por.distinct_states << "\n";
}

TEST(RandomWalks, EightPeerBudgetedWalkStaysClean) {
  ScenarioConfig cfg;
  cfg.num_tpeers = 4;
  cfg.num_speers = 4;
  cfg.num_items = 3;
  cfg.num_lookups = 2;
  cfg.crash_peer = 7;
  cfg.window = sim::SimTime::millis(1);

  const auto res = random_walks(cfg, 200, 1);
  EXPECT_EQ(res.runs, 200u);
  EXPECT_EQ(res.violating_runs, 0u)
      << (res.violating.empty() ? std::string()
                                : res.violating[0].one_line())
      << (res.violation_details.empty() ? std::string()
                                        : "\n" + res.violation_details[0]);
  EXPECT_GE(res.decision_points, 200u)
      << "walks encountered almost no co-enabled choices";
  std::cout << "[walks] runs=" << res.runs
            << " distinct states=" << res.distinct_states
            << " decisions=" << res.decision_points
            << " max_depth=" << res.max_depth << "\n";
}

}  // namespace
}  // namespace hp2p::verify
