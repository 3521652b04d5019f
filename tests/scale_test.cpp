// Scale guard-rails (ctest label: scale -- excluded from the quick tier
// alongside chaos/soak/durability).
//
// 1. A 50,000-peer replica must complete correctly under a peak-RSS ceiling
//    the old all-pairs routing tables alone would blow through: dense
//    storage at 50k hosts is V^2 * 12 bytes ~ 31 GB, so staying under 4 GB
//    for the *whole process* proves the O(V + T^2) decomposition carried
//    the run.
// 2. The N=1,000 paper-scale configuration keeps a pinned metrics digest:
//    any change to RNG streams, event ordering, underlay routing, or metric
//    accounting at paper scale trips this test.  If a change is intentional,
//    re-pin the constant from the failure message -- that is an explicit
//    statement that the paper benches moved.
// 3. The continuous profiler earns its keep at N=20,000 (bench_scale's top
//    default rung): >= 90% of measured dispatch time must be attributed to
//    named components, and attaching the profiler must cost <= 5% in CPU
//    time.  Each pair runs the plain and the profiled call in lockstep on
//    two threads bound to one CPU, in turns of 4,096 events, and the test
//    takes the median ratio over 16 pairs.  On a shared 4-vCPU Xeon VM
//    that median read 1.021-1.037 over ten runs, and 1.050-1.061 for a
//    profiler that cost ~2.5 points more, also with two busy loops
//    running beside the test; single back-to-back whole calls differ by
//    5-10% from one call to the next there.
// 4. Membership allocates O(1) per join: its allocated bytes per completed
//    join stay small and flat from 5k to 20k peers.
// 5. The 1,000-peer churn rung (5% crashes, 30 s of failure detection,
//    r = 2) allocates no more in membership and flood than when measured.
// 6. The event queue holds the work in flight: the kernel's slot arena
//    grows far slower than N from 5k to 20k peers.
#include <gtest/gtest.h>

#include <time.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
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

/// Every exported metric except host wall times and the audit counters,
/// flattened to "key=value" lines.  Debug builds audit every phase
/// boundary (audit.runs > 0), so the digest leaves the counters out and
/// the digest test asserts zero violations on its own.
std::string filtered_dump(const RunConfig& cfg, const RunResult& result) {
  stats::MetricsRegistry reg;
  collect_run_config(reg, "config", cfg);
  collect_run_result(reg, "run", result);
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
        << " MiB; all-pairs routing tables alone would need ~31 GB, so the "
           "decomposed routing has regressed";
  }
}

TEST(Scale, UnderlayMemoryStaysLinearAtFiftyThousandHosts) {
  Rng rng{7};
  Rng topo_rng = rng.fork(1);
  const auto params = net::TransitStubParams::for_total_nodes(50'001);
  const net::Underlay underlay{net::generate_transit_stub(params, topo_rng),
                               topo_rng};
  // Per-host uplink state is ~5 B/host and no stub-domain table is built
  // before its first query; the transit-core tables add a V-independent
  // few MB.  200 B/host is an order-of-magnitude cushion that any O(V^2)
  // structure bursts immediately.
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

/// CPU time the calling thread has used, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Binds the calling thread to `cpu` (best effort; no-op for -1).
void bind_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)sched_setaffinity(0, sizeof set, &set);
#else
  (void)cpu;
#endif
}

/// A turn shared by two runs on two threads: only the holder runs, and the
/// other waits, so the two never compete for a core.
class Baton {
 public:
  explicit Baton(int first) : turn_(first) {}

  /// Blocks until `arm` holds the turn or the other arm has finished.
  void wait(int arm) {
    std::unique_lock<std::mutex> lock{mu_};
    cv_.wait(lock, [&] { return turn_ == arm || done_[1 - arm]; });
  }
  /// Hands the turn to the other arm.
  void pass(int arm) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      turn_ = 1 - arm;
    }
    cv_.notify_all();
  }
  /// `arm` has finished; the other runs to its end without waiting.
  void finish(int arm) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      done_[arm] = true;
      turn_ = 1 - arm;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int turn_;
  bool done_[2] = {false, false};
};

/// Passes the baton every kSliceEvents fired events.
class SliceObserver final : public sim::Observer {
 public:
  static constexpr std::uint64_t kSliceEvents = 4096;  // ~4 ms at 20k peers

  SliceObserver(Baton& baton, int arm) : baton_(baton), arm_(arm) {}
  SliceObserver(const SliceObserver&) = delete;
  SliceObserver& operator=(const SliceObserver&) = delete;

  void on_event(const sim::TraceEvent& ev) override {
    if (ev.kind != sim::TraceEvent::Kind::kFire) return;
    if (++fired_ % kSliceEvents != 0) return;
    baton_.pass(arm_);
    baton_.wait(arm_);
  }

 private:
  Baton& baton_;
  int arm_;
  std::uint64_t fired_ = 0;
};

struct ArmResult {
  double cpu_s = 0;  // CPU time of the run_hybrid_experiment call
  std::uint64_t events = 0;
};

/// Runs `cfg` plain (arm 0) and profiled (arm 1) at once, each on its own
/// thread, in slices of kSliceEvents events that take turns; `first`
/// picks the arm that starts.  Both runs execute the same events, so a
/// pair of slices is the same work under the same host conditions.  Both
/// threads are bound to the caller's CPU: left free, the scheduler puts
/// them on different cores whenever other work runs, and one pair's
/// ratio then read anywhere from 0.70 to 1.31.
std::array<ArmResult, 2> run_lockstep_pair(const RunConfig& cfg, int first) {
  const int cpu = current_cpu();
  Baton baton{first};
  std::array<ArmResult, 2> out;
  std::array<std::exception_ptr, 2> errors;
  const auto arm = [&](int a) {
    const auto i = static_cast<std::size_t>(a);
    bind_to_cpu(cpu);
    try {
      stats::Profiler profiler;
      RunConfig c = cfg;
      if (a == 1) c.profiler = &profiler;
      SliceObserver slicer{baton, a};
      c.observer = &slicer;
      baton.wait(a);
      const double start = thread_cpu_s();
      const RunResult r = run_hybrid_experiment(c);
      out[i] = {thread_cpu_s() - start, r.sim_stats.events_executed};
    } catch (...) {
      errors[i] = std::current_exception();
    }
    baton.finish(a);  // never leave the other arm waiting
  };
  std::thread plain{arm, 0};
  std::thread profiled{arm, 1};
  plain.join();
  profiled.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
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
  // each whole call used.  A shared host changes speed from one call to
  // the next by more than the 5% under test, so the two calls of a pair
  // run in lockstep: turns of 4,096 events, one thread each, both on one
  // CPU, one running at a time.  Each call still reads its own thread's
  // CPU clock over the whole call, but a slow spell now lands on both.  The arm that starts
  // alternates between pairs, and the median over the pairs rejects the
  // occasional outlier.  The first pair warms both threads' heaps and is
  // not counted.
  constexpr int kPairs = 16;
  std::vector<double> ratios;
  for (int i = -1; i < kPairs; ++i) {
    const auto arms = run_lockstep_pair(cfg, i & 1);
    ASSERT_EQ(arms[0].events, arms[1].events)
        << "profiling must not change the event stream";
    ASSERT_GT(arms[0].cpu_s, 0.0);
    if (i >= 0) ratios.push_back(arms[1].cpu_s / arms[0].cpu_s);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  std::cout << "[overhead] median profiled/plain CPU-time ratio " << median
            << " over " << kPairs << " pairs (" << ratios.front() << " .. "
            << ratios.back() << ")\n";
  EXPECT_LE(median - 1.0, 0.05)
      << "median profiled/plain CPU-time ratio " << median << " ("
      << (median - 1.0) * 100 << "% overhead; ratios " << ratios.front()
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

TEST(Scale, EventQueueHoldsTheWorkInFlightNotEveryDriverOp) {
  // The driver keeps one pending op per phase (OpChain), so the kernel's
  // slot arena peaks at the work in flight, which grows far slower than N.
  // At seed 42 the high-water mark read 2,683 slots at 5k peers and 5,452
  // at 20k (x2.03).  Queuing every op of a phase up front gave 4,950 and
  // 19,800 (x4.0): every s-peer join pending at once.
  std::size_t slots[2] = {};
  const std::uint32_t sizes[2] = {5'000, 20'000};
  for (int i = 0; i < 2; ++i) {
    auto cfg = profiled_rung_config();
    cfg.num_peers = sizes[i];
    const RunResult r = run_hybrid_experiment(cfg);
    ASSERT_EQ(r.joins_completed, sizes[i]);
    slots[i] = r.arena_slots;
  }
  EXPECT_LE(static_cast<double>(slots[1]), 2.5 * static_cast<double>(slots[0]))
      << "the arena's high-water mark grew from " << slots[0]
      << " slots at 5k to " << slots[1] << " at 20k peers";
}

TEST(Scale, ChurnRungAllocationsStayWithinMeasuredCounts) {
  // The costly steady state at 1,000 peers: 5% crashes, 30 s of failure
  // detection and replication factor 2, so heartbeats, repair and floods
  // all run, and finger lookups walk the ring with retries armed.  Profiler
  // allocation counts are exact and deterministic, so each bound is the
  // count measured when it was set; a change that adds allocations to a
  // gated component fails here and must justify raising it.
  RunConfig cfg;
  cfg.seed = 42;
  cfg.num_peers = 1000;
  cfg.num_items = 50;
  cfg.num_lookups = 1000;
  cfg.hybrid.ps = 0.99;
  cfg.hybrid.ttl = 8;
  cfg.hybrid.delta = 3;
  cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
  cfg.hybrid.replication_factor = 2;
  cfg.tpeers_first = true;
  cfg.crash_fraction = 0.05;
  cfg.failure_detection = true;
  cfg.recovery_time = sim::SimTime::seconds(30);
  stats::Profiler prof;
  cfg.profiler = &prof;
  const RunResult r = run_hybrid_experiment(cfg);
  if (r.audit_runs != 0) {
    // Debug builds and HP2P_AUDIT=1 audit every phase boundary, and the
    // auditor's allocations land in whichever component is running.
    GTEST_SKIP() << "the bounds were measured without the overlay auditor";
  }
  ASSERT_EQ(r.sim_stats.events_executed, 111'752u) << "the rung's shape moved";
  const std::uint64_t membership =
      prof.component_total(sim::Component::kMembership).allocs;
  const std::uint64_t flood =
      prof.component_total(sim::Component::kFlood).allocs;
  const std::uint64_t ring = prof.component_total(sim::Component::kRing).allocs;
  const std::uint64_t replication =
      prof.component_total(sim::Component::kReplication).allocs;
  const std::uint64_t data = prof.component_total(sim::Component::kData).allocs;
  EXPECT_LE(membership, 5'607u);
  EXPECT_LE(flood, 6u);
  EXPECT_LE(ring, 148u);
  EXPECT_LE(replication, 1'049u);
  EXPECT_LE(data, 2'294u);
}

TEST(Scale, QuietRungAllocationsStayWithinMeasuredCounts) {
  // The quiet path at 20,000 peers (bench_scale's top default rung): joins,
  // stores and finger lookups whose floods cover s-networks of ~100 peers.
  // A lookup's flood dedups through one flat visited set, which allocates
  // in the flood only when the lookup contacts more than 32 peers, and a
  // peer keeps its items in one vector.  Each bound is the count measured
  // when it was set.
  auto cfg = profiled_rung_config();
  stats::Profiler prof;
  cfg.profiler = &prof;
  const RunResult r = run_hybrid_experiment(cfg);
  if (r.audit_runs != 0) {
    GTEST_SKIP() << "the bounds were measured without the overlay auditor";
  }
  ASSERT_EQ(r.joins_completed, 20'000u);
  ASSERT_EQ(r.sim_stats.events_executed, 237'314u) << "the rung's shape moved";
  EXPECT_LE(prof.component_total(sim::Component::kFlood).allocs, 492u);
  EXPECT_LE(prof.component_total(sim::Component::kData).allocs, 3'094u);
  EXPECT_LE(prof.component_total(sim::Component::kMembership).allocs,
            41'348u);
}

TEST(Scale, PaperScaleDigestIsPinned) {
  // The stock N=1,000 configuration (RunConfig defaults, seed 42): ring
  // t-network, interleaved joins -- the shape every fig/table bench builds
  // on.
  RunConfig cfg;
  cfg.seed = 42;
  const RunResult result = run_hybrid_experiment(cfg);
  EXPECT_EQ(result.audit_violations, 0u);
  const std::string dump = filtered_dump(cfg, result);
  const std::uint64_t kPinned = 0x324de54588b08757ull;
  const std::uint64_t actual = fnv1a(dump);
  EXPECT_EQ(actual, kPinned)
      << "N=1,000 paper-scale metrics changed (digest 0x" << std::hex << actual
      << std::dec << ", " << dump.size()
      << " bytes dumped); if intentional, update kPinned";
}

}  // namespace
}  // namespace hp2p::exp
