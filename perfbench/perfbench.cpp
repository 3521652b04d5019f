// One benchmark workload in one single-threaded process.
//
// Drives exp::run_hybrid_experiment with the workload configuration given on
// the command line and prints one JSON record of raw measurements on the last
// line of stdout; perfbench/run.py turns records into metrics and checks.
//
//   hp2p_perfbench --peers N --items N --lookups N --ps X --ttl N
//                  --routing ring|finger [--tpeers-first]
//                  [--crash F] [--fd-seconds S] [--replication R]
//                  --seed N --seconds S [--trace 0|1]
//
// Untraced repetitions of the same config run back to back until the next
// one would overrun --seconds (at least kMinReps of them), each followed by
// a fixed reference kernel whose time measures the host's current speed.
// VmHWM is read straight after the first one, before anything else
// allocates.  With --trace 1 one more repetition runs with a
// stats::Profiler attached (no time-series sampler), and the net layer is
// timed from outside: topology generation plus Underlay construction, and
// Underlay::latency on kLatencySamples seeded host pairs of the workload's
// own underlay.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/mman.h>

#include "common/alloc_stats.hpp"
#include "common/proc_stats.hpp"
#include "common/rng.hpp"
#include "exp/harness.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "stats/json.hpp"
#include "stats/profiler.hpp"

using namespace hp2p;
using stats::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kMinReps = 3;
constexpr std::size_t kLatencySamples = 100'000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  exp::RunConfig config;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "hp2p_perfbench: %s\n", why);
  std::exit(2);
}

/// A non-negative number small enough for every integer field it feeds.
double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(v >= 0 && v <= 4e9)) {
    usage(("bad value for " + flag).c_str());
  }
  return v;
}

std::uint64_t parse_seed(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    usage("bad value for --seed");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  exp::RunConfig& c = o.config;
  c.hybrid.delta = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tpeers-first") {
      c.tpeers_first = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--routing") {
      if (value != "ring" && value != "finger") {
        usage("--routing takes ring or finger");
      }
      c.hybrid.t_routing = value == "finger" ? hybrid::TRouting::kFinger
                                             : hybrid::TRouting::kRing;
      continue;
    }
    if (flag == "--seed") {
      c.seed = parse_seed(value);
      continue;
    }
    const double v = parse_number(flag, value);
    if (flag == "--peers") {
      c.num_peers = static_cast<std::uint32_t>(v);
    } else if (flag == "--items") {
      c.num_items = static_cast<std::size_t>(v);
    } else if (flag == "--lookups") {
      c.num_lookups = static_cast<std::size_t>(v);
    } else if (flag == "--ps") {
      c.hybrid.ps = v;
    } else if (flag == "--ttl") {
      c.hybrid.ttl = static_cast<unsigned>(v);
    } else if (flag == "--crash") {
      c.crash_fraction = v;
    } else if (flag == "--fd-seconds") {
      c.failure_detection = v > 0;
      c.recovery_time = sim::SimTime::millis(static_cast<std::int64_t>(v * 1000));
    } else if (flag == "--replication") {
      c.hybrid.replication_factor = static_cast<unsigned>(v);
    } else if (flag == "--seconds") {
      o.seconds = v;
    } else if (flag == "--trace") {
      o.trace = v != 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (c.num_peers < 2) usage("--peers must be at least 2");
  return o;
}

/// Raw measurements of one run_hybrid_experiment call.
JsonValue run_once(const exp::RunConfig& config) {
  const std::uint64_t allocs0 = alloc_stats::allocation_count();
  const std::uint64_t bytes0 = alloc_stats::allocated_bytes();
  const auto start = Clock::now();
  const exp::RunResult r = exp::run_hybrid_experiment(config);
  const double call_s = seconds_since(start);
  const std::uint64_t allocs = alloc_stats::allocation_count() - allocs0;
  const std::uint64_t alloc_bytes = alloc_stats::allocated_bytes() - bytes0;

  JsonValue rec = JsonValue::object();
  rec.set("call_s", call_s);
  JsonValue phases = JsonValue::object();
  for (const exp::PhaseTiming& p : r.phases) {
    JsonValue phase = JsonValue::object();
    phase.set("wall_s", p.wall_ms / 1000.0);
    phase.set("sim_s", p.sim_ms / 1000.0);
    phases.set(p.name, std::move(phase));
  }
  rec.set("phases", std::move(phases));
  rec.set("events", r.sim_stats.events_executed);
  JsonValue messages = JsonValue::object();
  for (std::size_t i = 0; i < proto::kNumTrafficClasses; ++i) {
    const auto cls = static_cast<proto::TrafficClass>(i);
    messages.set(proto::traffic_class_name(cls),
                 r.network.class_messages(cls));
  }
  rec.set("messages", std::move(messages));
  rec.set("messages_total", r.network.messages_sent);
  rec.set("bytes", r.network.bytes_sent);
  std::uint64_t drops = 0;
  for (const std::uint64_t d : r.network.drops_by_reason) drops += d;
  rec.set("drops", drops);
  rec.set("joins_started", std::uint64_t{config.num_peers});
  rec.set("joins_completed", static_cast<std::uint64_t>(r.joins_completed));
  rec.set("lookups_issued", r.lookups.issued);
  rec.set("lookups_succeeded", r.lookups.succeeded);
  rec.set("lookups_failed", r.lookups.failed);
  rec.set("success_hops", r.lookups.total_success_hops);
  rec.set("items_stored", static_cast<std::uint64_t>(r.items_stored));
  rec.set("items_recoverable", static_cast<std::uint64_t>(r.items_recoverable));
  rec.set("replica_pushes", r.replica_pushes);
  rec.set("re_replication_pushes", r.re_replication_pushes);
  rec.set("anti_entropy_repairs", r.anti_entropy_repairs);
  rec.set("read_repairs", r.read_repairs);
  rec.set("allocs", allocs);
  rec.set("alloc_bytes", alloc_bytes);
  return rec;
}

net::Underlay build_underlay(const exp::RunConfig& config) {
  // The same parameters and RNG stream as run_hybrid_experiment, so the
  // probe measures the workload's own underlay.
  Rng topo_rng = Rng{config.seed}.fork(1);
  const auto params = net::TransitStubParams::for_total_nodes(config.num_peers + 1);
  return net::Underlay{net::generate_transit_stub(params, topo_rng), topo_rng};
}

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[i];
}

/// Times the net layer from outside: underlay builds (median of three) and
/// one steady_clock-bracketed Underlay::latency call per sampled host pair,
/// so each latency figure includes one clock read.
JsonValue net_probe(const exp::RunConfig& config) {
  std::vector<double> build_s;
  std::optional<net::Underlay> built;
  for (int i = 0; i < 3; ++i) {
    built.reset();
    const auto start = Clock::now();
    built.emplace(build_underlay(config));
    build_s.push_back(seconds_since(start));
  }
  const net::Underlay& underlay = *built;
  Rng pair_rng = Rng{config.seed}.fork(7);
  std::vector<double> latency_ns;
  latency_ns.reserve(kLatencySamples);
  std::int64_t checksum = 0;
  for (std::size_t i = 0; i < kLatencySamples; ++i) {
    const HostIndex a{static_cast<std::uint32_t>(pair_rng.index(underlay.num_hosts()))};
    const HostIndex b{static_cast<std::uint32_t>(pair_rng.index(underlay.num_hosts()))};
    const auto start = Clock::now();
    const sim::SimTime t = underlay.latency(a, b);
    const auto end = Clock::now();
    checksum += t.as_micros();
    latency_ns.push_back(std::chrono::duration<double, std::nano>(end - start).count());
  }
  JsonValue probe = JsonValue::object();
  probe.set("underlay_build_s", percentile(build_s, 0.5));
  probe.set("routing_bytes",
            static_cast<std::uint64_t>(underlay.routing_memory_bytes()));
  probe.set("latency_samples", static_cast<std::uint64_t>(kLatencySamples));
  probe.set("latency_ns_p50", percentile(latency_ns, 0.5));
  probe.set("latency_ns_p99", percentile(latency_ns, 0.99));
  volatile std::int64_t sink = checksum;  // keeps the timed calls alive
  (void)sink;
  return probe;
}

/// Fixed, seed-independent memory-bound work timed after every experiment
/// call.  On shared hosts the memory system's speed drifts by tens of percent
/// over minutes; this kernel's time tracks that drift far better than a
/// compute loop does, so run.py scales reported times by it.  It works on
/// memory of its own -- one anonymous mapping made and released per call,
/// holding a 32 MiB table, a fixed-capacity binary heap and a pool of small
/// blocks -- and calls neither operator new nor malloc, so the state the
/// program leaves in the heap cannot change its time.
double reference_kernel_s() {
  constexpr std::size_t kTableWords = std::size_t{8} << 20;
  constexpr std::size_t kQueueCap = 5001;
  constexpr std::size_t kPoolWords = std::size_t{1} << 16;
  constexpr std::size_t kBytes = kTableWords * sizeof(std::uint32_t) +
                                 (kQueueCap + kPoolWords) * sizeof(std::uint64_t);
  const auto start = Clock::now();
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("hp2p_perfbench: mmap");
    std::exit(1);
  }
  auto* table = static_cast<std::uint32_t*>(mem);
  auto* queue = reinterpret_cast<std::uint64_t*>(table + kTableWords);
  std::uint64_t* pool = queue + kQueueCap;
  std::fill_n(table, kTableWords, 0u);
  std::size_t queue_size = 0;
  std::size_t pool_pos = 0;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 600'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (kTableWords - 1)] += i;
    queue[queue_size++] = x >> 20;
    std::push_heap(queue, queue + queue_size, std::greater<>{});
    const std::size_t len = 4 + (x & 15);
    if (pool_pos + len > kPoolWords) pool_pos = 0;
    std::fill_n(pool + pool_pos, len, std::uint64_t{0});
    pool[pool_pos] = x;
    acc += pool[pool_pos];
    pool_pos += len;
    if (queue_size > 5000) {
      acc += queue[0];
      std::pop_heap(queue, queue + queue_size, std::greater<>{});
      --queue_size;
    }
  }
  acc += table[5];
  munmap(mem, kBytes);
  const double elapsed = seconds_since(start);
  volatile std::uint64_t sink = acc;
  (void)sink;
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);

  JsonValue out = JsonValue::object();
  JsonValue untraced = JsonValue::array();
  // ref_s[i] is the reference kernel timed right after call i (the traced
  // call last); the first kernel runs after the VmHWM read.
  JsonValue ref_s = JsonValue::array();
  const auto start = Clock::now();
  double last_rep_s = 0;
  for (unsigned reps = 0;; ++reps) {
    const double elapsed = seconds_since(start);
    if (reps >= kMinReps && elapsed + last_rep_s > opts.seconds) break;
    const auto rep_start = Clock::now();
    untraced.push_back(run_once(opts.config));
    // VmHWM is monotone: read it before any later phase can raise it.
    if (reps == 0) out.set("peak_rss_bytes", peak_rss_bytes());
    ref_s.push_back(reference_kernel_s());
    last_rep_s = seconds_since(rep_start);
  }
  out.set("untraced", std::move(untraced));
  if (opts.trace) {
    stats::Profiler profiler;
    exp::RunConfig traced_config = opts.config;
    traced_config.profiler = &profiler;
    JsonValue traced = run_once(traced_config);
    traced.set("profile", profiler.to_json());
    out.set("traced", std::move(traced));
    ref_s.push_back(reference_kernel_s());
    out.set("net", net_probe(opts.config));
  }
  out.set("ref_s", std::move(ref_s));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
