// Scale ceiling: pushes the full stack -- hierarchical on-demand underlay
// routing, slot-arena event kernel, inline-closure transport -- far past the
// paper's 1,000-node runs and reports the numbers that prove the million-peer
// trajectory: peers, events/sec, peak RSS, bytes/peer, wall-clock, and the
// underlay routing-table footprint (O(V + T^2) plus the stub-domain tables
// the run queried, where all-pairs tables would be O(V^2)), and the one-way
// latency of sampled host pairs, so underlay growth shows per rung.
//
// The default run climbs a quick three-rung ladder; pin a single rung (e.g.
// the 100k soak) with HP2P_PEERS:
//
//   ./bench_scale                     # 1k / 5k / 20k ladder, laptop-fast
//   HP2P_PEERS=100000 ./bench_scale   # the 100k-peer soak
//
// Workload per rung: ~1% t-peers (ps = 0.99) with finger routing and a
// t-peers-first build -- the regime Section 4 argues for at scale, where
// ring state stays O(log N_t) and the s-networks absorb the mass.  Items
// and lookups track the peer count (1 per 20 peers) unless pinned via
// HP2P_ITEMS / HP2P_LOOKUPS.  Each peer count runs twice: a quiet rung
// (build, populate, lookups) and a churn rung that adds the costly steady
// state -- 5% crashes, 30 s of HELLO failure detection and replication
// factor 2 -- reported under the key n<peers>_churn.
//
// Each rung runs in a forked child process, which starts with the parent's
// small footprint, so its peak_rss_MB and B/peer are its own rather than
// the largest rung run before it.  The child writes its table row and
// report back through a pipe, and the parent merges them.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/proc_stats.hpp"
#include "exp/metrics_collect.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace hp2p;

namespace {

constexpr std::size_t kLatencyPairs = 20'000;

const std::vector<std::string> kColumns{
    "peers",       "mode",   "routing_MB", "events",     "Mev/s",    "wall_s",
    "peak_rss_MB", "B/peer", "lat_p50_ms", "lat_p99_ms", "lookup_ok"};

/// One-way latency (ms) of kLatencyPairs host pairs of the rung's underlay,
/// rebuilt as the harness builds it (Rng{seed}.fork(1), peers + 1 hosts).
/// The pairs come from a stream of their own, so no world stream shifts.
stats::Samples sample_latency_ms(const exp::RunConfig& cfg) {
  Rng topo_rng = Rng{cfg.seed}.fork(1);
  const net::Underlay underlay{
      net::generate_transit_stub(
          net::TransitStubParams::for_total_nodes(cfg.num_peers + 1),
          topo_rng),
      topo_rng};
  Rng pair_rng{cfg.seed ^ 0x1a7e9c11u};
  stats::Samples ms;
  ms.reserve(kLatencyPairs);
  for (std::size_t i = 0; i < kLatencyPairs; ++i) {
    const HostIndex a{static_cast<std::uint32_t>(
        pair_rng.index(underlay.num_hosts()))};
    const HostIndex b{static_cast<std::uint32_t>(
        pair_rng.index(underlay.num_hosts()))};
    ms.add(static_cast<double>(underlay.latency(a, b).as_micros()) / 1000.0);
  }
  return ms;
}

exp::RunConfig rung_config(const bench::Scale& scale, std::uint32_t peers) {
  auto cfg = bench::base_config(scale, 0);
  cfg.num_peers = peers;
  if (env_or("HP2P_ITEMS", std::int64_t{0}) == 0) {
    cfg.num_items = std::max<std::size_t>(1000, peers / 20);
  }
  if (env_or("HP2P_LOOKUPS", std::int64_t{0}) == 0) {
    cfg.num_lookups = std::max<std::size_t>(1000, peers / 20);
  }
  cfg.hybrid.ps = 0.99;
  cfg.hybrid.ttl = 8;  // delta=3 trees of ~100 s-peers need flood radius 8
  cfg.hybrid.t_routing = hybrid::TRouting::kFinger;
  cfg.tpeers_first = true;
  return cfg;
}

void add_churn(exp::RunConfig& cfg) {
  cfg.crash_fraction = 0.05;
  cfg.failure_detection = true;
  cfg.recovery_time = sim::SimTime::seconds(30);
  cfg.hybrid.replication_factor = 2;
}

/// Latency percentiles of a peer count's underlay.  Its quiet rung samples
/// them and its churn rung, which runs on the same underlay, reports them.
struct Latency {
  double p50 = 0;
  double p99 = 0;
};

/// Runs one rung and returns {"row": its ladder-table cells, "report": a
/// report holding its metrics under n<peers>[_churn] and, on the profiled
/// rung, the profile sections}.  `latency` is sampled on a quiet rung,
/// after the peak-RSS read so the probe's underlay is not counted.
stats::JsonValue run_rung(const bench::Scale& scale, std::uint32_t peers,
                          bool churn, bool profile_rung, Latency latency) {
  auto cfg = rung_config(scale, peers);
  if (churn) add_churn(cfg);
  bench::Reporter reporter{"scale", scale};
  // HP2P_PROFILE=1 profiles the ladder's top quiet rung (the interesting
  // one): component attribution plus 1 s-period occupancy gauges (arena
  // slots, event backlog, live heap bytes, VmRSS) in the report's
  // timeseries.
  stats::Profiler profiler;
  if (profile_rung) {
    cfg.profiler = &profiler;
    cfg.sample_period = sim::SimTime::seconds(1);
  }
  const auto r = exp::run_hybrid_experiment(cfg);

  double wall_ms = 0;
  double sim_ms = 0;
  for (const auto& phase : r.phases) {
    wall_ms += phase.wall_ms;
    sim_ms += phase.sim_ms;
  }
  const double events_per_sec =
      wall_ms > 0 ? static_cast<double>(r.sim_stats.events_executed) *
                        1000.0 / wall_ms
                  : 0;
  const std::uint64_t peak_rss = peak_rss_bytes();
  const double bytes_per_peer =
      static_cast<double>(peak_rss) / static_cast<double>(peers);
  const double lookup_ok =
      r.lookups.issued > 0 ? static_cast<double>(r.lookups.succeeded) /
                                 static_cast<double>(r.lookups.issued)
                           : 0;
  if (!churn) {
    const stats::Samples latency_ms = sample_latency_ms(cfg);
    latency = {latency_ms.percentile(50), latency_ms.percentile(99)};
  }

  stats::Table row{kColumns};
  row.row()
      .cell(std::uint64_t{peers})
      .cell(churn ? "churn" : "quiet")
      .cell(static_cast<double>(r.routing_table_bytes) / (1024.0 * 1024.0), 2)
      .cell(r.sim_stats.events_executed)
      .cell(events_per_sec / 1e6, 2)
      .cell(wall_ms / 1000.0, 2)
      .cell(static_cast<double>(peak_rss) / (1024.0 * 1024.0), 1)
      .cell(bytes_per_peer, 0)
      .cell(latency.p50, 1)
      .cell(latency.p99, 1)
      .cell(lookup_ok, 3);

  const std::string key = "n" + std::to_string(peers) + (churn ? "_churn" : "");
  exp::collect_run_result(reporter.metrics(), key, r);
  auto& m = reporter.metrics();
  m.set(key + ".routing_table_bytes",
        stats::JsonValue{static_cast<std::uint64_t>(r.routing_table_bytes)});
  m.set(key + ".hosts", stats::JsonValue{std::uint64_t{r.hosts}});
  m.set(key + ".events_per_sec", stats::JsonValue{events_per_sec});
  m.set(key + ".wall_ms_total", stats::JsonValue{wall_ms});
  m.set(key + ".sim_ms_total", stats::JsonValue{sim_ms});
  m.set(key + ".peak_rss_bytes", stats::JsonValue{peak_rss});
  m.set(key + ".bytes_per_peer", stats::JsonValue{bytes_per_peer});
  m.set(key + ".latency_ms.p50", stats::JsonValue{latency.p50});
  m.set(key + ".latency_ms.p99", stats::JsonValue{latency.p99});
  if (profile_rung) {
    if (r.timeseries) reporter.add_timeseries(*r.timeseries);
    bench::report_profile(reporter, profiler);
  }

  stats::JsonValue cells = stats::JsonValue::array();
  for (const std::string& c : row.row_cells(0)) cells.push_back(c);
  stats::JsonValue out = stats::JsonValue::object();
  out.set("row", std::move(cells));
  out.set("report", reporter.to_json());
  return out;
}

/// Runs `work` in a forked child and returns the JSON it wrote back through
/// a pipe; nullopt when the child failed.  The child's VmHWM starts at the
/// parent's resident size at fork, not at the parent's peak.
std::optional<stats::JsonValue> in_child(
    const std::function<stats::JsonValue()>& work) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::cout.flush();  // or the child would print the parent's buffer again
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // The child exits here, even when the rung throws: it must never
    // return into the parent's ladder loop.
    ::close(fds[0]);
    int status = 1;
    try {
      const std::string text = work().dump();
      std::cout.flush();
      std::fflush(stdout);
      std::size_t done = 0;
      while (done < text.size()) {
        const ssize_t n =
            ::write(fds[1], text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      if (done == text.size()) status = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    } catch (...) {
    }
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return stats::JsonValue::parse(text);
}

}  // namespace

int main() {
  auto scale = bench::scale_from_env();
  std::vector<std::uint32_t> ladder;
  if (env_or("HP2P_PEERS", std::int64_t{0}) != 0) {
    ladder.push_back(scale.peers);
  } else {
    ladder = {1000, 5000, 20000};
    scale.peers = ladder.back();
  }

  bench::Reporter reporter{"scale", scale};
  bench::print_header(
      "Scale ceiling -- events/sec, peak RSS, bytes/peer vs. peer count",
      "hierarchical routing + arena'd event loop keep memory O(V) and "
      "throughput flat past 10k peers",
      scale);

  stats::Table table{kColumns};
  const bool profiling = bench::profile_from_env();
  for (const std::uint32_t peers : ladder) {
    Latency latency;
    for (const bool churn : {false, true}) {
      const bool profile_rung = profiling && !churn && peers == ladder.back();
      const auto out = in_child([&] {
        return run_rung(scale, peers, churn, profile_rung, latency);
      });
      const stats::JsonValue* row = out ? out->find("row") : nullptr;
      const stats::JsonValue* report = out ? out->find("report") : nullptr;
      if (row == nullptr || report == nullptr || !reporter.merge(*report)) {
        std::fprintf(stderr, "error: the %u-peer %s rung failed\n", peers,
                     churn ? "churn" : "quiet");
        return 1;
      }
      table.row();
      for (const stats::JsonValue& c : row->items()) table.cell(c.as_string());
      if (!churn) {
        const auto& m = reporter.metrics();
        const std::string key = "n" + std::to_string(peers);
        latency = {m.number_or(key + ".latency_ms.p50", 0),
                   m.number_or(key + ".latency_ms.p99", 0)};
      }
    }
  }
  table.print(std::cout);
  reporter.add_table("scale_ladder", table);

  stats::JsonValue rungs = stats::JsonValue::array();
  for (const std::uint32_t peers : ladder) {
    rungs.push_back(stats::JsonValue{std::uint64_t{peers}});
  }
  reporter.config().set("ladder", std::move(rungs));
  return reporter.write() ? 0 : 1;
}
