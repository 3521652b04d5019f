// Chaos-engine tests: JSON round-trips for schedules, one directed schedule
// per fault family checked against the model-based oracle, mid-storm lookup
// coverage, a deliberate-regression canary (ring retry disabled must be
// caught), the schedule shrinker, and the multi-seed randomized soak.
#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos_runner.hpp"
#include "chaos/fault_schedule.hpp"
#include "chaos/shrinker.hpp"
#include "common/hashing.hpp"

namespace hp2p::chaos {
namespace {

FaultPhase make_phase(FaultKind kind, int start_s, int duration_s) {
  FaultPhase p;
  p.kind = kind;
  p.start = sim::SimTime::seconds(start_s);
  p.duration = sim::SimTime::seconds(duration_s);
  return p;
}

FaultSchedule single_phase(std::uint64_t seed, FaultPhase p) {
  FaultSchedule s;
  s.seed = seed;
  s.phases.push_back(p);
  return s;
}

ChaosConfig directed_config(std::uint64_t seed, FaultSchedule schedule) {
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.schedule = std::move(schedule);
  return cfg;
}

void expect_clean(const ChaosReport& report, const ChaosConfig& cfg) {
  EXPECT_TRUE(report.clean())
      << "reproducer: " << cfg.schedule.one_line() << "\nreport: "
      << report.to_json().dump(2);
  EXPECT_GT(report.must_issued, 0u);
  EXPECT_EQ(report.must_failed, 0u);
}

// --- Schedule serialization ---------------------------------------------------

TEST(FaultSchedule, PhaseJsonRoundTrip) {
  FaultPhase p = make_phase(FaultKind::kPartition, 15, 6);
  p.intensity = 0.37;
  p.count = 5;
  p.param = 3;
  p.symmetric = false;
  p.affect_control = true;
  const auto dumped = p.to_json().dump(0);
  const auto parsed = stats::JsonValue::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  const auto back = FaultPhase::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(FaultSchedule, ScheduleJsonRoundTrip) {
  const auto schedule = random_schedule(99, sim::SimTime::seconds(15), 8);
  ASSERT_FALSE(schedule.phases.empty());
  const auto dumped = schedule.to_json().dump(0);
  const auto parsed = stats::JsonValue::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  const auto back = FaultSchedule::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, schedule);
  // one_line embeds the same compact blob after "schedule=".
  const auto line = schedule.one_line();
  EXPECT_NE(line.find("seed=99 "), std::string::npos);
  EXPECT_NE(line.find(dumped), std::string::npos);
}

TEST(FaultSchedule, RandomSchedulesAreSeedDeterministic) {
  const auto a = random_schedule(7, sim::SimTime::seconds(15), 8);
  const auto b = random_schedule(7, sim::SimTime::seconds(15), 8);
  const auto c = random_schedule(8, sim::SimTime::seconds(15), 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- Directed schedules, one per fault family ---------------------------------

TEST(ChaosDirected, LossBurst) {
  auto phase = make_phase(FaultKind::kLossBurst, 15, 6);
  phase.intensity = 0.35;
  const auto cfg = directed_config(101, single_phase(101, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
}

TEST(ChaosDirected, LatencyStorm) {
  auto phase = make_phase(FaultKind::kLatencyStorm, 15, 6);
  phase.intensity = 4.0;
  const auto cfg = directed_config(102, single_phase(102, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
}

TEST(ChaosDirected, AsymmetricPartition) {
  auto phase = make_phase(FaultKind::kPartition, 15, 6);
  phase.param = 3;  // cut underlay domains {0,1,2} off from the rest
  phase.symmetric = false;
  const auto cfg = directed_config(103, single_phase(103, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
}

TEST(ChaosDirected, SymmetricPartition) {
  auto phase = make_phase(FaultKind::kPartition, 15, 6);
  phase.param = 3;
  phase.symmetric = true;
  const auto cfg = directed_config(104, single_phase(104, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
}

TEST(ChaosDirected, TPeerCrashStorm) {
  auto phase = make_phase(FaultKind::kTPeerCrashStorm, 15, 8);
  phase.count = 4;
  const auto cfg = directed_config(105, single_phase(105, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
  EXPECT_GT(report.crashes, 0u);
}

TEST(ChaosDirected, SPeerCrashStorm) {
  auto phase = make_phase(FaultKind::kSPeerCrashStorm, 15, 8);
  phase.count = 6;
  const auto cfg = directed_config(106, single_phase(106, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
  EXPECT_GT(report.crashes, 0u);
}

TEST(ChaosDirected, JoinFlashCrowd) {
  auto phase = make_phase(FaultKind::kJoinFlashCrowd, 15, 4);
  phase.count = 8;
  const auto cfg = directed_config(107, single_phase(107, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
  EXPECT_EQ(report.joins, 8u);
}

TEST(ChaosDirected, StaleHelloDelivery) {
  auto phase = make_phase(FaultKind::kStaleHello, 15, 6);
  phase.param = 2500;  // > hello_timeout: forces false suspicions
  const auto cfg = directed_config(108, single_phase(108, phase));
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
}

// --- Mid-storm lookups and the deliberate-regression canary -------------------

TEST(ChaosStorm, LookupsDuringCrashStormSurviveWithRetry) {
  auto phase = make_phase(FaultKind::kTPeerCrashStorm, 15, 8);
  phase.count = 3;
  auto cfg = directed_config(109, single_phase(109, phase));
  cfg.storm_lookups = 40;
  const auto report = run_chaos(cfg);
  expect_clean(report, cfg);
  EXPECT_GT(report.storm_issued, 0u);
}

TEST(ChaosStorm, DisablingRingRetryIsCaught) {
  // Same scenario with the hardening switched off: the oracle must flag
  // mid-storm MUST lookups that stalled on a hop to a crashed t-peer.
  auto phase = make_phase(FaultKind::kTPeerCrashStorm, 15, 8);
  phase.count = 5;
  auto cfg = directed_config(109, single_phase(109, phase));
  cfg.storm_lookups = 60;
  cfg.params.ring_retry_limit = 0;
  const auto report = run_chaos(cfg);
  bool storm_must_failed = false;
  for (const auto& v : report.violations) {
    storm_must_failed |= std::string(v.kind) == "storm_must_failed";
  }
  EXPECT_TRUE(storm_must_failed)
      << "ring-retry disabled but no storm_must_failed violation; report: "
      << report.to_json().dump(2);
}

// --- Pinned runner output -----------------------------------------------------

TEST(ChaosPinned, CrashStormReportDigestsArePinned) {
  // The full report of one crash storm with mid-storm lookups, at three
  // seeds: any change to how run_chaos builds, drives or judges its world
  // shows up here, even when the run stays clean.
  const std::uint64_t kPinned[] = {0x0b6aa121d1463f9dull, 0x2cc8d75a796a5ac1ull,
                                   0x29a76975dd042505ull};
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto phase = make_phase(FaultKind::kSPeerCrashStorm, 15, 8);
    phase.count = 4;
    auto cfg = directed_config(201 + i, single_phase(201 + i, phase));
    cfg.storm_lookups = 30;
    const std::string json = run_chaos(cfg).to_json().dump(0);
    EXPECT_EQ(fnv1a64(json), kPinned[i])
        << "seed " << cfg.seed << " digest 0x" << std::hex << fnv1a64(json)
        << std::dec << "\n" << json;
  }
}

// --- Shrinker -----------------------------------------------------------------

TEST(ChaosShrink, ReducesFailingScheduleToMinimalReproducer) {
  // Three phases, only the crash storm matters once retries are disabled.
  FaultSchedule schedule;
  schedule.seed = 110;
  auto noise1 = make_phase(FaultKind::kLatencyStorm, 15, 4);
  noise1.intensity = 2.0;
  auto storm = make_phase(FaultKind::kTPeerCrashStorm, 21, 8);
  storm.count = 5;
  auto noise2 = make_phase(FaultKind::kStaleHello, 31, 4);
  noise2.param = 2000;
  schedule.phases = {noise1, storm, noise2};

  const auto run_with = [](const FaultSchedule& s) {
    auto cfg = directed_config(110, s);
    cfg.storm_lookups = 60;
    cfg.params.ring_retry_limit = 0;
    return run_chaos(cfg);
  };
  ASSERT_FALSE(run_with(schedule).clean())
      << "the unshrunk schedule must fail under ring_retry_limit = 0";

  const auto shrunk = shrink_schedule(
      schedule, [&](const FaultSchedule& s) { return !run_with(s).clean(); });
  EXPECT_LE(shrunk.phases.size(), 2u);
  ASSERT_GE(shrunk.phases.size(), 1u);

  // The minimal reproducer replays byte-identically from its printed form.
  const auto line = shrunk.one_line();
  const auto blob = line.substr(line.find("schedule=") + 9);
  const auto parsed = stats::JsonValue::parse(blob);
  ASSERT_TRUE(parsed.has_value());
  const auto replayed = FaultSchedule::from_json(*parsed);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, shrunk);
  const auto first = run_with(*replayed);
  const auto second = run_with(*replayed);
  EXPECT_FALSE(first.clean());
  EXPECT_EQ(first.to_json().dump(0), second.to_json().dump(0));
}

// --- Randomized soak ----------------------------------------------------------

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, RandomScheduleLeavesNoViolations) {
  const std::uint64_t seed = GetParam();
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.schedule = random_schedule(seed, sim::SimTime::seconds(15), 12);
  const auto report = run_chaos(cfg);
  EXPECT_TRUE(report.clean())
      << "reproducer: " << cfg.schedule.one_line() << "\nreport: "
      << report.to_json().dump(2);
  // The oracle must actually assert something each run.
  EXPECT_GT(report.must_issued, 0u);
  std::cout << "[soak] seed=" << seed << " phases="
            << cfg.schedule.phases.size() << " crashes=" << report.crashes
            << " joins=" << report.joins << " must=" << report.must_issued
            << " may=" << report.may_issued << " may_failed="
            << report.may_failed << " items_live=" << report.items_live
            << "/" << report.items_stored << "\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

// --- Shuffled-dispatch soak ---------------------------------------------------
// The same kind of randomized storm, but with the kernel's FIFO tie-break
// replaced by a seeded shuffle (the HP2P_TIEBREAK=shuffle:<seed> hook):
// equal-timestamp events now dispatch in random order.  A clean pass
// certifies no protocol invariant silently leans on scheduling order --
// the cheap statistical cousin of the verify/ interleaving explorer.
class ShuffledSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffledSoak, ShuffledTieOrderLeavesNoViolations) {
  const std::uint64_t seed = GetParam();
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.tie_break = "shuffle:" + std::to_string(seed * 7919 + 17);
  cfg.schedule = random_schedule(seed, sim::SimTime::seconds(15), 12);
  const auto report = run_chaos(cfg);
  EXPECT_TRUE(report.clean())
      << "tie_break: " << cfg.tie_break
      << "\nreproducer: " << cfg.schedule.one_line() << "\nreport: "
      << report.to_json().dump(2);
  EXPECT_GT(report.must_issued, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledSoak,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

}  // namespace
}  // namespace hp2p::chaos
