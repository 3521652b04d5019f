// Scale guard-rails (ctest label: scale -- excluded from the quick tier
// alongside chaos/soak/durability).
//
// 1. A 50,000-peer replica must complete correctly under a peak-RSS ceiling
//    the old all-pairs routing tables alone would blow through: dense
//    storage at 50k hosts is V^2 * 12 bytes ~ 31 GB, so staying under 4 GB
//    for the *whole process* proves the hierarchical O(V) path carried the
//    run.
// 2. The N=1,000 paper-scale configuration keeps a pinned metrics digest:
//    any change to RNG streams, event ordering, dense routing, or metric
//    accounting at paper scale trips this test.  If a change is intentional,
//    re-pin the constant from the failure message -- that is an explicit
//    statement that the paper benches moved.
// 3. The continuous profiler earns its keep at N=20,000 (bench_scale's top
//    default rung): >= 90% of measured dispatch time must be attributed to
//    named components, and attaching the profiler must cost <= 5% in
//    process CPU time (median ratio over back-to-back pairs).
// 4. Membership allocates O(1) per join: its allocated bytes per completed
//    join stay small and flat from 5k to 20k peers.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/proc_stats.hpp"
#include "common/rng.hpp"
#include "exp/harness.hpp"
#include "exp/metrics_collect.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "stats/metrics.hpp"

namespace hp2p::exp {
namespace {

/// Same filtering as repro_test: every exported metric except host wall
/// times, flattened to "key=value" lines.
std::string filtered_dump(const RunConfig& cfg, const RunResult& result) {
  stats::MetricsRegistry reg;
  collect_run_config(reg, "config", cfg);
  collect_run_result(reg, "run", result);
  const std::string_view kWall = ".wall_ms";
  std::string out;
  for (const auto& [key, value] : reg.entries()) {
    if (key.size() >= kWall.size() &&
        key.compare(key.size() - kWall.size(), kWall.size(), kWall) == 0) {
      continue;
    }
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

TEST(Scale, FiftyThousandPeersFitUnderRssCeiling) {
  RunConfig cfg;
  cfg.seed = 7;
  cfg.num_peers = 50'000;
  cfg.num_items = 500;
  cfg.num_lookups = 500;
  cfg.hybrid.ps = 0.99;  // ~500 t-peers; s-networks absorb the mass
  cfg.hybrid.ttl = 8;    // delta=3 trees of ~100 peers need flood radius 8
  cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
  cfg.tpeers_first = true;

  const RunResult r = run_hybrid_experiment(cfg);
  EXPECT_EQ(r.joins_completed, 50'000u);
  EXPECT_EQ(r.lookups.issued, 500u);
  EXPECT_GT(r.lookups.succeeded, 450u);
  EXPECT_EQ(r.audit_violations, 0u);

  const std::uint64_t peak = peak_rss_bytes();
  if (peak != 0) {  // procfs available
    EXPECT_LT(peak, std::uint64_t{4} << 30)
        << "50k-peer run peaked at " << (peak >> 20)
        << " MiB; dense all-pairs routing alone would need ~31 GB, so the "
           "hierarchical path has regressed";
  }
}

TEST(Scale, UnderlayMemoryStaysLinearAtFiftyThousandHosts) {
  Rng rng{7};
  Rng topo_rng = rng.fork(1);
  const auto params = net::TransitStubParams::for_total_nodes(50'001);
  const net::Underlay underlay{net::generate_transit_stub(params, topo_rng),
                               topo_rng};
  ASSERT_EQ(underlay.routing_mode(), net::RoutingMode::kHierarchical);
  // Per-host uplink state is ~16 B/host; the transit-core tables add a
  // V-independent few MB.  200 B/host is an order-of-magnitude cushion that
  // any O(V^2) structure bursts immediately.
  EXPECT_LT(underlay.routing_memory_bytes(),
            std::size_t{underlay.num_hosts()} * 200);
}

/// bench_scale's rung_config at its top default rung (20k peers, ~1%
/// t-peers, finger routing, t-peers-first build).
RunConfig profiled_rung_config() {
  RunConfig cfg;
  cfg.seed = 42;
  cfg.num_peers = 20'000;
  cfg.num_items = 1000;
  cfg.num_lookups = 1000;
  cfg.hybrid.ps = 0.99;
  cfg.hybrid.ttl = 8;
  cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
  cfg.tpeers_first = true;
  return cfg;
}

/// CPU time this process has used, in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs `cfg`; sets `cpu_s` to the process CPU time the call used.
RunResult run_timed(const RunConfig& cfg, double& cpu_s) {
  const double start = process_cpu_s();
  RunResult r = run_hybrid_experiment(cfg);
  cpu_s = process_cpu_s() - start;
  return r;
}

TEST(Scale, ProfilerAttributesDispatchTimeAtTwentyThousandPeers) {
  auto cfg = profiled_rung_config();
  stats::Profiler prof;
  cfg.profiler = &prof;
  const RunResult r = run_hybrid_experiment(cfg);
  ASSERT_EQ(r.joins_completed, 20'000u);

  ASSERT_GT(prof.dispatch_ns_total(), 0u);
  const double fraction = static_cast<double>(prof.attributed_ns()) /
                          static_cast<double>(prof.dispatch_ns_total());
  EXPECT_GE(fraction, 0.90)
      << "only " << fraction * 100 << "% of dispatch time reached a named "
      << "component; a new event source is being scheduled outside any "
      << "ComponentScope";
  EXPECT_LE(prof.attributed_ns(), prof.dispatch_ns_total());

  // The workload regime implies which components must have fired.
  for (const sim::Component c :
       {sim::Component::kMembership, sim::Component::kRing,
        sim::Component::kData, sim::Component::kWorkload}) {
    EXPECT_GT(prof.component_total(c).enters, 0u)
        << "component " << sim::component_name(c) << " never entered";
  }
  EXPECT_EQ(prof.truncated_frames(), 0u);
}

TEST(Scale, ProfilerOverheadStaysUnderFivePercent) {
  const auto cfg = profiled_rung_config();
  // events_executed is identical on both arms (the profiler schedules
  // nothing), so events/sec overhead reduces to the ratio of the CPU time
  // each whole call used.  CPU time leaves out the waits a shared host adds
  // to wall time; each back-to-back (plain, profiled) pair still yields one
  // ratio, so adjacent runs see the same cache and frequency conditions,
  // and the median over the pairs rejects the occasional outlier.
  std::vector<double> ratios;
  std::uint64_t events = 0;
  std::uint64_t profiled_events = 0;
  for (int i = 0; i < 5; ++i) {
    double plain_s = 0;
    const RunResult plain = run_timed(cfg, plain_s);
    events = plain.sim_stats.events_executed;

    auto pcfg = cfg;
    stats::Profiler prof;
    pcfg.profiler = &prof;
    double profiled_s = 0;
    const RunResult profiled = run_timed(pcfg, profiled_s);
    profiled_events = profiled.sim_stats.events_executed;

    ASSERT_GT(plain_s, 0.0);
    ratios.push_back(profiled_s / plain_s);
  }
  EXPECT_EQ(events, profiled_events)
      << "profiling must not change the event stream";
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;
  EXPECT_LE(overhead, 0.05)
      << "median profiled/plain CPU-time ratio " << ratios[ratios.size() / 2]
      << " (" << overhead * 100 << "% overhead; ratios " << ratios.front()
      << " .. " << ratios.back() << ")";
}

TEST(Scale, MembershipAllocatesConstantBytesPerJoin) {
  // An s-peer join is one server contact plus a short walk down a
  // delta-capped tree, so what membership allocates per join must not grow
  // with N.  O(N) scratch per join (a zero-filled visited vector, or a
  // deep copy of every peer on each peers_ reallocation) fails both bounds.
  double per_join[2] = {};
  const std::uint32_t sizes[2] = {5'000, 20'000};
  for (int i = 0; i < 2; ++i) {
    auto cfg = profiled_rung_config();
    cfg.num_peers = sizes[i];
    stats::Profiler prof;
    cfg.profiler = &prof;
    const RunResult r = run_hybrid_experiment(cfg);
    ASSERT_EQ(r.joins_completed, sizes[i]);
    per_join[i] = static_cast<double>(
                      prof.component_total(sim::Component::kMembership)
                          .alloc_bytes) /
                  static_cast<double>(r.joins_completed);
    EXPECT_LE(per_join[i], 1024.0)
        << sizes[i] << " peers: membership allocated " << per_join[i]
        << " B per completed join";
  }
  EXPECT_LE(per_join[1], 1.25 * per_join[0])
      << "membership bytes per join grew from " << per_join[0] << " B at 5k to "
      << per_join[1] << " B at 20k peers";
}

TEST(Scale, PaperScaleDigestIsPinned) {
  // The stock N=1,000 configuration (RunConfig defaults, seed 42): dense
  // routing, ring t-network, interleaved joins -- the shape every fig/table
  // bench builds on.
  RunConfig cfg;
  cfg.seed = 42;
  const std::string dump = filtered_dump(cfg, run_hybrid_experiment(cfg));
  const std::uint64_t kPinned = 0x658944b218f7f980ull;
  const std::uint64_t actual = fnv1a(dump);
  EXPECT_EQ(actual, kPinned)
      << "N=1,000 paper-scale metrics changed (digest 0x" << std::hex << actual
      << std::dec << ", " << dump.size()
      << " bytes dumped); if intentional, update kPinned";
}

}  // namespace
}  // namespace hp2p::exp
