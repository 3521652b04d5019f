// Microbenchmarks for the kernel-level building blocks: event queue, RNG,
// hashing, finger-table scans, Dijkstra/underlay construction, histogram
// updates, and the Section 7 cache lookup structures.  google-benchmark
// binary with a custom main: every run is mirrored into
// BENCH_micro_kernel.json so throughput regressions are machine-checkable
// (e.g. the event-loop items_per_second guarding the trace-hook overhead).
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "chord/finger_table.hpp"
#include "common/alloc_stats.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "net/transit_stub.hpp"
#include "net/underlay.hpp"
#include "proto/overlay_network.hpp"
#include "sim/simulator.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/histogram.hpp"
#include "stats/profiler.hpp"
#include "stats/trace.hpp"

// Heap-allocation counting comes from the shared common/alloc_stats hook
// (referencing its accessors links the counting operator new into this
// binary), so the steady-state benches can ASSERT the event dispatch path
// allocates nothing (the InlineFunction + slot-arena contract).  The hook
// costs one relaxed atomic increment; the other benches measure through it
// uniformly.

namespace {

using namespace hp2p;

std::uint64_t heap_allocs() { return alloc_stats::allocation_count(); }

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(sim::SimTime::micros((i * 7919) % 100000),
                      [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The HELLO/ack machinery cancels timers constantly; measure the lazy-
  // cancellation path.
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::TimerId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      ids.push_back(sim.schedule_at(sim::SimTime::micros(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(10000);

void BM_EventQueueSteadyStateZeroAlloc(benchmark::State& state) {
  // Steady-state dispatch: constant-depth queue, one schedule + one fire per
  // iteration.  Once the slot arena and heap vector reach their high-water
  // capacity, this loop must perform ZERO heap allocations -- asserted via
  // the global operator-new hook, so a regressing closure size or container
  // swap fails the bench instead of silently re-adding a malloc per event.
  sim::Simulator sim;
  std::uint64_t sink = 0;
  constexpr std::int64_t kDepth = 1024;
  std::int64_t t = 0;
  for (; t < kDepth; ++t) {
    sim.schedule_at(sim::SimTime::micros(t), [&sink] { ++sink; });
  }
  // One full drain+refill warms every vector past its final capacity, then
  // a few schedule+step rounds reach the measured loop's exact high-water
  // occupancy (depth + 1 while the new event coexists with the popped one).
  sim.run();
  for (t = kDepth; t < 2 * kDepth; ++t) {
    sim.schedule_at(sim::SimTime::micros(t), [&sink] { ++sink; });
  }
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(sim::SimTime::micros(t++), [&sink] { ++sink; });
    sim.step();
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    sim.schedule_at(sim::SimTime::micros(t++), [&sink] { ++sink; });
    sim.step();
  }
  const std::uint64_t allocs = heap_allocs() - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.counters["heap_allocs"] =
      benchmark::Counter(static_cast<double>(allocs));
  if (allocs != 0) {
    state.SkipWithError("steady-state event dispatch heap-allocated");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyStateZeroAlloc);

void BM_EventQueueDeepBacklog(benchmark::State& state) {
  // A backlog of far-future events under a few near-term ones that churn:
  // the shape a driver gives the queue when it schedules every op of a
  // phase up front.  Each pop sifts the heap's last item, a backlog event,
  // down through every level, and each push sifts up through them, so the
  // per-event cost grows with the backlog even though the work in flight
  // stays at kNear events.
  const auto backlog = state.range(0);
  sim::Simulator sim;
  std::uint64_t sink = 0;
  const auto far = sim::SimTime::seconds(1'000'000);
  for (std::int64_t i = 0; i < backlog; ++i) {
    sim.schedule_at(far + sim::SimTime::micros(i), [&sink] { ++sink; });
  }
  constexpr std::int64_t kNear = 64;
  std::int64_t t = 0;
  for (; t < kNear; ++t) {
    sim.schedule_at(sim::SimTime::micros(t), [&sink] { ++sink; });
  }
  for (auto _ : state) {
    sim.schedule_at(sim::SimTime::micros(t++), [&sink] { ++sink; });
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDeepBacklog)->Arg(1000)->Arg(100000);

void BM_TransportSteadyStateZeroAlloc(benchmark::State& state) {
  // One overlay message per iteration, delivered before the next: the
  // per-hop path (send -> schedule -> fire -> deliver) must not allocate
  // either -- this is the per-message malloc/free pair that dominated the
  // event loop past ~10k peers before the InlineFunction conversion.
  Rng rng{8};
  const auto params = net::TransitStubParams::for_total_nodes(200);
  const net::Underlay underlay{net::generate_transit_stub(params, rng), rng};
  sim::Simulator sim;
  // profiled:1 -- a profiler observes the kernel, so every delivery also
  // takes the per-class message note, which must stay allocation-free too.
  stats::Profiler profiler;
  if (state.range(0) != 0) sim.add_observer(&profiler);
  // watched:1 -- every message is a watched send with a ring hop's retry
  // deadline (2x hop + 500 ms); it is delivered, so its continuation is
  // dropped unrun and the message still costs exactly one kernel event.
  const bool watched = state.range(1) != 0;
  proto::OverlayNetwork net{sim, underlay};
  const PeerIndex a = net.add_peer(HostIndex{17});
  const PeerIndex b = net.add_peer(HostIndex{171});
  const sim::Duration hop = net.hop_latency(a, b, proto::kQueryBytes);
  std::uint64_t sink = 0;
  std::uint64_t late = 0;
  const auto send_one = [&] {
    if (watched) {
      net.send_watched(a, b, proto::TrafficClass::kQuery, proto::kQueryBytes,
                       {}, [&sink] { ++sink; },
                       sim.now() + hop + hop + sim::SimTime::millis(500),
                       [&late] { ++late; });
    } else {
      net.send(a, b, proto::TrafficClass::kQuery, proto::kQueryBytes,
               [&sink] { ++sink; });
    }
    sim.run();
  };
  for (int i = 0; i < 64; ++i) send_one();  // warm transport + kernel
  const std::uint64_t allocs_before = heap_allocs();
  const std::uint64_t events_before = sim.stats().events_executed;
  for (auto _ : state) send_one();
  const std::uint64_t allocs = heap_allocs() - allocs_before;
  const std::uint64_t events = sim.stats().events_executed - events_before;
  benchmark::DoNotOptimize(sink);
  state.counters["heap_allocs"] =
      benchmark::Counter(static_cast<double>(allocs));
  state.counters["events_per_msg"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  if (allocs != 0) {
    state.SkipWithError("per-message transport path heap-allocated");
  } else if (late != 0) {
    state.SkipWithError("a delivered watched send ran its continuation");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportSteadyStateZeroAlloc)
    ->ArgNames({"profiled", "watched"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_EventQueueProfiled(benchmark::State& state) {
  // Same workload as BM_EventQueueScheduleRun but with the dispatch
  // profiler attached: the delta against the unprofiled run is the
  // enabled-path cost: two frame hooks and one allocation-counter snapshot
  // per event, plus a clock read every ~47 charge points.  The budget is
  // <= 5% at the full-system event rate
  // (Scale.ProfilerOverheadStaysUnderFivePercent).
  const auto n = static_cast<std::int64_t>(state.range(0));
  stats::Profiler profiler;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.add_observer(&profiler);
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(sim::SimTime::micros((i * 7919) % 100000),
                      [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  benchmark::DoNotOptimize(profiler.dispatch_ns_total());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueProfiled)->Arg(10000);

void BM_EventQueueProfiledSteadyStateZeroAlloc(benchmark::State& state) {
  // The profiler preallocates its frame stack and accumulator table, so
  // steady-state dispatch must stay zero-alloc even with profiling ON --
  // otherwise continuous profiling would itself distort the allocation
  // attribution it reports.
  sim::Simulator sim;
  stats::Profiler profiler;
  sim.add_observer(&profiler);
  std::uint64_t sink = 0;
  constexpr std::int64_t kDepth = 1024;
  std::int64_t t = 0;
  for (; t < kDepth; ++t) {
    sim.schedule_at(sim::SimTime::micros(t), [&sink] { ++sink; });
  }
  sim.run();
  for (t = kDepth; t < 2 * kDepth; ++t) {
    sim.schedule_at(sim::SimTime::micros(t), [&sink] { ++sink; });
  }
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(sim::SimTime::micros(t++), [&sink] { ++sink; });
    sim.step();
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    sim.schedule_at(sim::SimTime::micros(t++), [&sink] { ++sink; });
    sim.step();
  }
  const std::uint64_t allocs = heap_allocs() - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.counters["heap_allocs"] =
      benchmark::Counter(static_cast<double>(allocs));
  if (allocs != 0) {
    state.SkipWithError("profiled steady-state event dispatch heap-allocated");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueProfiledSteadyStateZeroAlloc);

void BM_EventQueueTraced(benchmark::State& state) {
  // Same workload as BM_EventQueueScheduleRun but with a kernel observer
  // counting fires: the delta against the unobserved run is the cost a
  // subscriber pays.
  struct FireCounter final : sim::Observer {
    std::uint64_t fires = 0;
    unsigned hooks() const override { return kTrace; }
    void on_event(const sim::TraceEvent& ev) override {
      if (ev.kind == sim::TraceEvent::Kind::kFire) ++fires;
    }
  };
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    FireCounter counter;
    sim.add_observer(&counter);
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(sim::SimTime::micros((i * 7919) % 100000),
                      [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(counter.fires);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueTraced)->Arg(10000);

void BM_EventQueueFlightRecorder(benchmark::State& state) {
  // Same workload again with a flight recorder tailing the kernel's
  // observer list: the always-on observability configuration of the soak
  // tests.
  struct Tail final : sim::Observer {
    Tail(stats::FlightRecorder& f, sim::Simulator& s) : flight(f), sim(s) {}
    unsigned hooks() const override { return kTrace; }
    void on_event(const sim::TraceEvent& ev) override {
      flight.record(sim.now(), "sim:event",
                    static_cast<std::uint64_t>(ev.kind), ev.seq);
    }
    stats::FlightRecorder& flight;
    sim::Simulator& sim;
  };
  const auto n = static_cast<std::int64_t>(state.range(0));
  stats::FlightRecorder flight{512};
  for (auto _ : state) {
    sim::Simulator sim;
    Tail tail{flight, sim};
    sim.add_observer(&tail);
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(sim::SimTime::micros((i * 7919) % 100000),
                      [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  benchmark::DoNotOptimize(flight.total_recorded());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueFlightRecorder)->Arg(10000);

void BM_SpanRecorderBeginEnd(benchmark::State& state) {
  // Cost of one fully recorded hop: child span open + instant + close.
  constexpr std::size_t kCap = 1u << 16;
  stats::SpanRecorder recorder{kCap};
  auto root = recorder.start_trace("lookup", "lookup", 0, sim::SimTime{});
  std::int64_t t = 0;
  for (auto _ : state) {
    if (recorder.spans().size() + 2 > kCap) {
      // Swap in a fresh recorder instead of measuring the at-capacity
      // drop path.
      state.PauseTiming();
      recorder = stats::SpanRecorder{kCap};
      root = recorder.start_trace("lookup", "lookup", 0, sim::SimTime{});
      state.ResumeTiming();
    }
    const auto span = recorder.begin_span(root, "ring", "ring", 1,
                                          sim::SimTime::micros(t));
    recorder.instant(span, "ring_hop", 2, sim::SimTime::micros(t + 1), "hop",
                     1);
    recorder.end_span(span, sim::SimTime::micros(t + 2));
    t += 3;
  }
  benchmark::DoNotOptimize(recorder.spans().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanRecorderBeginEnd);

// --- Section 7 cache lookup: the seed's linear deque scan vs the indexed
// map answer_source now uses.  Same record shape, same probe stream.

struct CacheRec {
  std::uint64_t id;
  std::uint64_t expires;
};

std::vector<std::uint64_t> cache_probes(std::size_t cap) {
  Rng rng{6};
  std::vector<std::uint64_t> probes;
  probes.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    probes.push_back(rng.uniform(0, cap - 1) * 2654435761ULL);
  }
  return probes;
}

void BM_CacheLinearScan(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  std::deque<CacheRec> cache;
  for (std::size_t i = 0; i < cap; ++i) {
    cache.push_back({i * 2654435761ULL, 1});
  }
  const auto probes = cache_probes(cap);
  std::size_t p = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::uint64_t id = probes[p++ & 1023];
    for (const CacheRec& rec : cache) {
      if (rec.id == id) {
        sink += rec.expires;
        break;
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLinearScan)->Arg(8)->Arg(64)->Arg(512);

void BM_CacheIndexedLookup(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  std::unordered_map<std::uint64_t, CacheRec> cache;
  for (std::size_t i = 0; i < cap; ++i) {
    cache.emplace(i * 2654435761ULL, CacheRec{i * 2654435761ULL, 1});
  }
  const auto probes = cache_probes(cap);
  std::size_t p = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const auto it = cache.find(probes[p++ & 1023]);
    if (it != cache.end()) sink += it->second.expires;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheIndexedLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_RngUniform(benchmark::State& state) {
  Rng rng{1};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.uniform(0, 999983);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngUniform);

void BM_HashKey(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    sink ^= hash_key("item-" + std::to_string(i++)).value();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HashKey);

void BM_FingerClosestPreceding(benchmark::State& state) {
  chord::FingerTable fingers;
  fingers.init(PeerId{12345});
  Rng rng{2};
  for (unsigned k = 0; k < chord::FingerTable::size(); ++k) {
    fingers.set(k, PeerIndex{k}, PeerId{rng.uniform(0, kRingSize - 1)});
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= fingers.closest_preceding(rng.uniform(0, kRingSize - 1))
                .node_id.value();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_FingerClosestPreceding);

void BM_TransitStubGenerate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto params = net::TransitStubParams::for_total_nodes(n);
  for (auto _ : state) {
    Rng rng{3};
    auto topo = net::generate_transit_stub(params, rng);
    benchmark::DoNotOptimize(topo.graph.num_edges());
  }
}
BENCHMARK(BM_TransitStubGenerate)->Arg(200)->Arg(1000);

void BM_UnderlayApsp(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto params = net::TransitStubParams::for_total_nodes(n);
  for (auto _ : state) {
    Rng rng{4};
    net::Underlay underlay{net::generate_transit_stub(params, rng), rng};
    benchmark::DoNotOptimize(
        underlay.latency(HostIndex{0}, HostIndex{n - 1}));
  }
}
BENCHMARK(BM_UnderlayApsp)->Arg(200)->Arg(500);

// Underlay construction alone (the topology copy is untimed): the
// decomposition -- core tables and gateway distances -- at the paper's
// 1,024 hosts and at ~100k.  Stub-domain tables are built on first use
// (BM_UnderlayDomainTableBuild).
void BM_UnderlayBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng topo_rng{4};
  const net::Topology topo = net::generate_transit_stub(
      net::TransitStubParams::for_total_nodes(n), topo_rng);
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology copy = topo;
    Rng cap{5};
    state.ResumeTiming();
    const net::Underlay underlay{std::move(copy), cap};
    benchmark::DoNotOptimize(underlay.routing_memory_bytes());
  }
  state.counters["hosts"] = static_cast<double>(topo.graph.num_nodes());
}
BENCHMARK(BM_UnderlayBuild)
    ->Arg(1024)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

/// One latency() query per iteration, cycling over 4,096 seeded pairs of
/// stub hosts.  Arg 0: hosts in different domains at 1,024 hosts.  Arg 1:
/// the same at ~100k.  Arg 2: both hosts in one stub domain at ~100k, with
/// the destination changing every query; the domain tables are warmed
/// before timing, so each query is one table read.
void BM_UnderlayLatency(benchmark::State& state) {
  const auto kind = state.range(0);
  Rng rng{6};
  const net::Underlay underlay{
      net::generate_transit_stub(
          net::TransitStubParams::for_total_nodes(kind == 0 ? 1024 : 100'000),
          rng),
      rng};
  const net::Topology& topo = underlay.topology();
  const std::uint32_t v = underlay.num_hosts();
  const std::uint32_t t = topo.num_transit_nodes;
  std::vector<std::pair<HostIndex, HostIndex>> pairs;
  pairs.reserve(4096);
  while (pairs.size() < 4096) {
    const auto a = static_cast<std::uint32_t>(rng.index(v));
    if (a < t) continue;  // stub sources only
    const std::uint32_t domain = topo.domain[a];
    if (kind != 2) {
      const auto b = static_cast<std::uint32_t>(rng.index(v));
      if (b >= t && topo.domain[b] != domain) {
        pairs.emplace_back(HostIndex{a}, HostIndex{b});
      }
      continue;
    }
    // Two more members of a's domain as destinations (stub domains are
    // contiguous id blocks), so consecutive destinations differ.
    for (const std::uint32_t b : {a + 1, a - 1}) {
      if (b >= t && b < v && topo.domain[b] == domain) {
        pairs.emplace_back(HostIndex{a}, HostIndex{b});
      }
    }
  }
  for (const auto& [from, to] : pairs) {
    benchmark::DoNotOptimize(underlay.latency(from, to));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [from, to] = pairs[i];
    benchmark::DoNotOptimize(underlay.latency(from, to));
    i = (i + 1) % pairs.size();
  }
  state.SetLabel(kind == 0   ? "inter_1k"
                 : kind == 1 ? "inter_100k"
                             : "intra_warm");
}
BENCHMARK(BM_UnderlayLatency)->Arg(0)->Arg(1)->Arg(2);

/// One OverlayNetwork::hop_latency() per iteration over ~100k peers, one
/// per host of a ~100k-host underlay, as in the harness.  Both ends of
/// each of 2^20 seeded pairs are drawn from the whole population, so the
/// peers' transport records are as cold as in a 100k run; unlike
/// BM_UnderlayLatency's 4,096 pairs, they do not fit in L1.  Pairs sharing
/// a stub domain are left out, so no query builds a domain table.  Which
/// pair comes next depends on the previous answer, as a hop's handler
/// waits for the hop before it: the time per query is the latency of its
/// chain of loads, not how many queries the core overlaps.
/// Arg 0: the transport alone, whose few MB stay in L2/L3.  Arg 1: each
/// query also reads one random line of a 64 MiB block standing in for
/// the rest of a 100k run (peer records, event queue, closures), which
/// competes with the transport's arrays for the cache as a run does.
void BM_TransportHopLatency(benchmark::State& state) {
  Rng rng{6};
  const net::Underlay underlay{
      net::generate_transit_stub(
          net::TransitStubParams::for_total_nodes(100'000), rng),
      rng};
  sim::Simulator sim;
  proto::OverlayNetwork net{sim, underlay};
  const std::uint32_t v = underlay.num_hosts();
  for (std::uint32_t h = 0; h < v; ++h) (void)net.add_peer(HostIndex{h});
  const net::Topology& topo = underlay.topology();
  const auto stub_domain = [&](std::uint32_t host) {
    return host < topo.num_transit_nodes ? ~std::uint32_t{0}
                                         : topo.domain[host];
  };
  std::vector<std::pair<PeerIndex, PeerIndex>> pairs;
  pairs.reserve(std::size_t{1} << 20);
  while (pairs.size() < pairs.capacity()) {
    const auto a = static_cast<std::uint32_t>(rng.index(v));
    const auto b = static_cast<std::uint32_t>(rng.index(v));
    if (stub_domain(a) == stub_domain(b) && stub_domain(a) != ~0u) continue;
    pairs.emplace_back(PeerIndex{a}, PeerIndex{b});
  }
  const bool with_world = state.range(0) != 0;
  constexpr std::size_t kWorldLines = (std::size_t{64} << 20) / 64;
  std::vector<std::uint64_t> world(with_world ? kWorldLines * 8 : 0, 1);
  std::uint64_t sink = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [from, to] = pairs[i];
    if (with_world) {
      // Independent of the chain: it evicts, it does not wait.
      sink += world[((i * 0x9E3779B97F4A7C15ull) >> 44) % kWorldLines * 8];
    }
    const sim::SimTime t = net.hop_latency(from, to, proto::kQueryBytes);
    i = (i + 1 + static_cast<std::size_t>(t.as_micros() & 1)) &
        (pairs.size() - 1);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["peers"] = v;
  state.SetLabel(with_world ? "with_64MiB_world" : "alone");
}
BENCHMARK(BM_TransportHopLatency)->Arg(0)->Arg(1);

/// The first same-domain query into a cold 64-host stub domain: builds its
/// table (one intra-domain Dijkstra per member).  A fresh Underlay per
/// iteration (untimed) keeps every table cold.
void BM_UnderlayDomainTableBuild(benchmark::State& state) {
  Rng topo_rng{6};
  const net::Topology topo = net::generate_transit_stub(
      net::TransitStubParams::for_total_nodes(5'000), topo_rng);
  const std::uint32_t t = topo.num_transit_nodes;
  std::uint32_t members = 0;
  while (t + members < topo.graph.num_nodes() &&
         topo.domain[t + members] == topo.domain[t]) {
    ++members;
  }
  const HostIndex from{t};
  const HostIndex to{t + members - 1};
  std::optional<net::Underlay> underlay;
  for (auto _ : state) {
    state.PauseTiming();
    underlay.reset();  // the previous one's destruction is untimed too
    net::Topology copy = topo;
    Rng cap{5};
    underlay.emplace(std::move(copy), cap);
    state.ResumeTiming();
    benchmark::DoNotOptimize(underlay->latency(from, to));
  }
  state.counters["domain_hosts"] = members;
}
BENCHMARK(BM_UnderlayDomainTableBuild)->Unit(benchmark::kMicrosecond);

void BM_HistogramAdd(benchmark::State& state) {
  stats::Histogram hist{0.0, 1000.0, 64};
  Rng rng{5};
  for (auto _ : state) {
    hist.add(rng.uniform01() * 1200.0 - 100.0);
  }
  benchmark::DoNotOptimize(hist.total());
}
BENCHMARK(BM_HistogramAdd);

// Console output as usual, plus every iteration run copied into the shared
// bench::Reporter so BENCH_micro_kernel.json carries per-bench
// real/cpu time and rate counters.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::Reporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string key = metric_key(run.benchmark_name());
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      out_.metrics().set(key + ".real_time_ns",
                         run.real_accumulated_time / iters * 1e9);
      out_.metrics().set(key + ".cpu_time_ns",
                         run.cpu_accumulated_time / iters * 1e9);
      out_.metrics().set(key + ".iterations",
                         static_cast<std::uint64_t>(run.iterations));
      for (const auto& [cname, counter] : run.counters) {
        // The library finishes counters (applies kIsRate etc.) before
        // handing runs to reporters; counter.value is the displayed number.
        out_.metrics().set(key + "." + metric_key(cname), counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  // "BM_Foo/1000" nests at the '/'; '.' and ':' would nest or collide.
  static std::string metric_key(std::string name) {
    for (char& c : name) {
      if (c == '/') {
        c = '.';
      } else if (c == '.' || c == ':') {
        c = '_';
      }
    }
    return name;
  }

  bench::Reporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc raises its mmap and trim thresholds each time a large block is
  // freed, so a bench that builds a fresh kernel per iteration would pay
  // page faults for its multi-MB arena on every iteration or on none,
  // depending on which benches ran before it.  Fixed thresholds keep freed
  // blocks in the heap from the start, so every bench starts from the same
  // warm-heap state whatever runs first.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hp2p::bench::Reporter reporter{"micro_kernel"};
  JsonCaptureReporter display{reporter};
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return reporter.write() ? 0 : 1;
}
