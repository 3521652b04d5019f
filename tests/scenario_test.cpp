// Scenario-runner guard-rails (ctest label: workload -- excluded from the
// quick tier alongside chaos/soak/durability/scale/explore).
//
// 1. Dormancy: this binary links hp2p_scenario, and the stock N=1,000
//    paper-scale run must still produce the digest pinned in scale_test --
//    merely linking the workload/scenario layer must not perturb a run
//    that does not use it.
// 2. Tracker failover: the content swarm completes with zero MUST failures
//    and zero integrity mismatches while the chaos schedule crashes the
//    tracker t-peers mid-download; the reannounce-disabled canary proves
//    the oracle (not luck) is holding that bar, and the shrinker reduces
//    the canary's failing schedule to a one-line reproducer.
// 3. Hot-key storm: under rotating-hot-key churn the Section 7 cache keeps
//    the hottest peer's load bounded; with the cache off the same storm
//    must melt the holder (the DisablingCacheIsCaught-style canary).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "chaos/shrinker.hpp"
#include "exp/harness.hpp"
#include "exp/metrics_collect.hpp"
#include "stats/metrics.hpp"
#include "workload/scenario_runner.hpp"

namespace hp2p::workload {
namespace {

/// Same filtering as scale_test: every exported metric except host wall
/// times and the audit counters (non-zero in Debug builds, which audit
/// every phase boundary), flattened to "key=value" lines.
std::string filtered_dump(const exp::RunConfig& cfg,
                          const exp::RunResult& result) {
  stats::MetricsRegistry reg;
  exp::collect_run_config(reg, "config", cfg);
  exp::collect_run_result(reg, "run", result);
  const std::string_view kWall = ".wall_ms";
  const std::string_view kAudit = "run.audit.";
  std::string out;
  for (const auto& [key, value] : reg.entries()) {
    if (key.size() >= kWall.size() &&
        key.compare(key.size() - kWall.size(), kWall.size(), kWall) == 0) {
      continue;
    }
    if (key.compare(0, kAudit.size(), kAudit) == 0) continue;
    out += key;
    out += '=';
    out += value.dump();
    out += '\n';
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ScenarioDormancy, PaperScaleDigestUnchangedWithScenarioLayerLinked) {
  // Touch the scenario layer so the linker cannot discard it, but run the
  // stock experiment without it.
  const ScenarioConfig unused = diurnal_scenario(1);
  ASSERT_NE(unused.workload, nullptr);

  exp::RunConfig cfg;
  cfg.seed = 42;
  const exp::RunResult result = exp::run_hybrid_experiment(cfg);
  EXPECT_EQ(result.audit_violations, 0u);
  const std::string dump = filtered_dump(cfg, result);
  // Must match scale_test's PaperScaleDigestIsPinned constant: the workload
  // subsystem is dormant unless a scenario actually runs.
  const std::uint64_t kPinned = 0x324de54588b08757ull;
  EXPECT_EQ(fnv1a(dump), kPinned)
      << "linking hp2p_scenario changed the stock N=1,000 run (digest 0x"
      << std::hex << fnv1a(dump) << std::dec << ")";
}

TEST(ScenarioPinned, PresetReportDigestsArePinned) {
  // Full reports of the four shipped presets at seed 1: any change to how
  // run_scenario builds, drives or judges its world shows up here.
  const ScenarioConfig presets[] = {
      diurnal_scenario(1), hot_key_storm_scenario(1, true),
      flash_crowd_scenario(1), swarm_scenario(1)};
  const std::uint64_t kPinned[] = {0xe87c26cb10a7b245ull, 0x3fc6c478583484b4ull,
                                   0xa9bb09c59bbbfbafull, 0xb2398b2413edc1c2ull};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string json = run_scenario(presets[i]).to_json().dump(0);
    EXPECT_EQ(fnv1a(json), kPinned[i])
        << "preset " << i << " digest 0x" << std::hex << fnv1a(json)
        << std::dec << "\n" << json;
  }
}

TEST(ScenarioSwarm, CompletesThroughTrackerCrashWithZeroMustFailures) {
  const auto report = run_scenario(swarm_scenario(3));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GE(report.crashes, 1u) << "the tracker crash storm never fired";
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_EQ(report.value_mismatches, 0u);
  EXPECT_EQ(report.must_failed, 0u);
  EXPECT_EQ(report.wave_must_failed, 0u);
  EXPECT_TRUE(report.ring_ok);
  EXPECT_TRUE(report.trees_ok);
  // The swarm actually downloads: every leecher x piece lookup succeeds
  // against its FNV-1a piece hash or the run is not clean above.
  EXPECT_GT(report.availability, 0.99);
}

TEST(ScenarioSwarm, DisablingTrackerReannounceIsCaughtAndShrinks) {
  // Canary: with index-rebuild failover off, the same tracker crash leaves
  // pieces unreachable (failed lookups), proving the clean pass above is
  // earned by the reannounce path.
  const auto failing_config = [](const chaos::FaultSchedule& schedule) {
    auto cfg = swarm_scenario(3);
    cfg.params.tracker_reannounce = false;
    cfg.schedule = schedule;
    return cfg;
  };
  const chaos::FaultSchedule original = swarm_scenario(3).schedule;
  const auto fails = [&](const chaos::FaultSchedule& schedule) {
    return run_scenario(failing_config(schedule)).lookups_failed > 0;
  };
  ASSERT_TRUE(fails(original))
      << "tracker_reannounce=false no longer degrades the swarm; the "
         "failover path is not being exercised";

  // The failing schedule shrinks to a minimal reproducer that replays
  // byte-identically from its one-line form.
  const auto shrunk = chaos::shrink_schedule(
      original, [&](const chaos::FaultSchedule& s) { return fails(s); });
  ASSERT_GE(shrunk.phases.size(), 1u);
  EXPECT_TRUE(fails(shrunk));
  const auto line = shrunk.one_line();
  const auto blob = line.substr(line.find("schedule=") + 9);
  const auto parsed = stats::JsonValue::parse(blob);
  ASSERT_TRUE(parsed.has_value());
  const auto replayed = chaos::FaultSchedule::from_json(*parsed);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, shrunk);
  EXPECT_TRUE(fails(*replayed));
}

TEST(ScenarioHotKey, CacheBoundsMaxPeerLoadUnderKeyChurn) {
  const auto cached = run_scenario(hot_key_storm_scenario(5, true));
  EXPECT_TRUE(cached.clean()) << cached.to_json().dump(2);
  EXPECT_GT(cached.lookups_issued, 0u);
  EXPECT_GT(cached.cache_hits, 0u);
  // The rotating hot key never melts one holder: the cache spreads each
  // rotation across surrogates (the ablation's 520 -> 38 claim, now under
  // key churn and a crash storm).
  EXPECT_LT(cached.max_peer_load, 100u) << cached.to_json().dump(2);

  // DisablingCacheIsCaught-style canary: the identical storm with the cache
  // off must melt the hottest holder, or the bound above is vacuous.
  const auto uncached = run_scenario(hot_key_storm_scenario(5, false));
  EXPECT_GT(uncached.max_peer_load, 4 * cached.max_peer_load)
      << "cache off no longer concentrates load; the cached bound asserts "
         "nothing";
}

TEST(ScenarioFlashCrowd, CrowdJoinsAbsorbedCleanly) {
  const auto report = run_scenario(flash_crowd_scenario(7));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_EQ(report.joins, FlashCrowdWorkload{}.burst_joins);
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_GT(report.availability, 0.95);
}

TEST(ScenarioDiurnal, FullDayCurveSurvivesCrashStorm) {
  const auto report = run_scenario(diurnal_scenario(11));
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GE(report.crashes, 1u);
  EXPECT_GT(report.joins, 0u);
  EXPECT_GT(report.leaves, 0u);
  EXPECT_GT(report.stores, 0u);
  EXPECT_GT(report.availability, 0.8);
}

TEST(ScenarioComposition, ChaosUnderCompositeWorkloadStaysClean) {
  // The combinator stacks two scenarios into one stream; the oracle bar is
  // unchanged.
  auto cfg = diurnal_scenario(13);
  cfg.workload = compose(std::make_shared<DiurnalWorkload>(),
                         std::make_shared<FlashCrowdWorkload>());
  const auto report = run_scenario(cfg);
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_GT(report.lookups_issued, 0u);
  EXPECT_GT(report.joins, 0u);
}

}  // namespace
}  // namespace hp2p::workload
