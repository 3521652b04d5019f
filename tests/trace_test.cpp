// Deterministic-seed tests for the observability layer: the span tree a
// traced hybrid lookup records (ring hops, then flood, then reply), span
// nesting under churn, the catapult export, the time-series sampler, and
// the bounded flight recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "stats/flight_recorder.hpp"
#include "stats/metrics.hpp"
#include "stats/timeseries.hpp"
#include "stats/trace.hpp"
#include "tests/test_util.hpp"

namespace hp2p {
namespace {

using testing::SimWorld;

hybrid::HybridParams traced_params() {
  hybrid::HybridParams p;
  p.ps = 0.5;
  p.delta = 3;
  p.ttl = 8;
  return p;
}

/// Hybrid deployment with the span recorder on the transport, mirroring
/// what the experiment harness does; the protocol layer records through it.
struct TracedFixture {
  explicit TracedFixture(std::uint64_t seed,
                         hybrid::HybridParams params = traced_params())
      : world(seed, 120),
        system(world.network, params, HostIndex{0}, world.rng) {
    world.network.set_span_recorder(&recorder);
  }

  void build(std::size_t n) {
    const double ps = system.params().ps;
    auto n_t = static_cast<std::size_t>(
        std::max(1.0, (1.0 - ps) * static_cast<double>(n) + 0.5));
    n_t = std::min(n_t, n);
    std::vector<hybrid::Role> roles(n, hybrid::Role::kSPeer);
    for (std::size_t i = 0; i < n_t; ++i) roles[i] = hybrid::Role::kTPeer;
    std::vector<hybrid::Role> tail(roles.begin() + 1, roles.end());
    world.rng.shuffle(tail);
    std::copy(tail.begin(), tail.end(), roles.begin() + 1);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const hybrid::Role role = roles[i];
      world.sim.schedule_after(
          sim::SimTime::millis(static_cast<std::int64_t>(i) * 40), [&, role] {
            peers.push_back(system.add_peer_with_role(
                world.next_host(), role, [&](proto::JoinResult) {
                  ++completed;
                }));
          });
    }
    world.sim.run();
    ASSERT_EQ(completed, n) << "not every join completed";
  }

  std::vector<std::string> populate(std::size_t count) {
    std::vector<std::string> keys;
    std::size_t done_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
      keys.push_back("key-" + std::to_string(i));
      system.store(peers[i % peers.size()], keys.back(), i,
                   [&] { ++done_count; });
    }
    world.sim.run();
    EXPECT_EQ(done_count, count);
    return keys;
  }

  stats::SpanRecorder recorder;
  SimWorld world;
  hybrid::HybridSystem system;
  std::vector<PeerIndex> peers;
};

/// Root spans with the given category, in recording order.
std::vector<const stats::Span*> roots_of(const stats::SpanRecorder& r,
                                         std::string_view category) {
  std::vector<const stats::Span*> out;
  for (const stats::Span& s : r.spans()) {
    if (s.parent == 0 && !s.instant && category == s.category) {
      out.push_back(&s);
    }
  }
  return out;
}

std::int64_t arg_of(const stats::Span& s, std::string_view key,
                    std::int64_t fallback = -1) {
  for (const auto& [k, v] : s.args) {
    if (key == k) return v;
  }
  return fallback;
}

// --- Span trees of hybrid operations ----------------------------------------

TEST(Trace, UntracedRunRecordsNothing) {
  TracedFixture f{7};
  f.world.network.set_span_recorder(nullptr);
  f.build(30);
  f.populate(10);
  std::size_t done = 0;
  f.system.lookup(f.peers[3], "key-5", [&](proto::LookupResult r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  f.world.sim.run();
  EXPECT_EQ(done, 1u);
  EXPECT_TRUE(f.recorder.spans().empty());
  EXPECT_EQ(f.recorder.num_traces(), 0u);
}

TEST(Trace, LookupRecordsClosedWellFormedSpanTree) {
  TracedFixture f{11};
  f.build(40);
  const auto keys = f.populate(30);

  std::size_t done = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  ASSERT_EQ(done, keys.size());

  const auto lookup_roots = roots_of(f.recorder, "lookup");
  ASSERT_EQ(lookup_roots.size(), keys.size());
  for (const stats::Span* root : lookup_roots) {
    // finish_query closed the root and annotated the outcome.
    EXPECT_FALSE(root->open);
    EXPECT_NE(arg_of(*root, "success"), -1);
    EXPECT_NE(arg_of(*root, "qid"), -1);
  }

  // Every span: ends after it starts, parent exists within the same trace.
  for (const stats::Span& s : f.recorder.spans()) {
    EXPECT_GE((s.end - s.start).as_micros(), 0);
    EXPECT_NE(s.trace_id, 0u);
    if (s.parent != 0) {
      const stats::Span* parent = f.recorder.find(s.parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->trace_id, s.trace_id);
      EXPECT_FALSE(parent->instant);
    }
  }
  EXPECT_EQ(f.recorder.dropped_spans(), 0u);
}

TEST(Trace, RemoteLookupOrdersRingBeforeFloodBeforeReply) {
  TracedFixture f{13};
  f.build(40);
  const auto keys = f.populate(30);

  std::size_t done = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    f.system.lookup(f.peers[(i * 7) % f.peers.size()], keys[i],
                    [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  ASSERT_EQ(done, keys.size());

  // Stage spans are opened sequentially, so within one trace the recording
  // order is the execution order: any ring stage precedes any flood stage,
  // and the reply stage is last.
  std::size_t traces_with_ring_then_flood = 0;
  for (const stats::Span* root : roots_of(f.recorder, "lookup")) {
    std::vector<const stats::Span*> stages;
    for (const stats::Span* s : f.recorder.trace(root->trace_id)) {
      if (!s->instant && s->parent == root->id) stages.push_back(s);
    }
    std::ptrdiff_t first_flood = -1;
    std::ptrdiff_t last_ring = -1;
    for (std::ptrdiff_t i = 0;
         i < static_cast<std::ptrdiff_t>(stages.size()); ++i) {
      const std::string_view cat{stages[static_cast<std::size_t>(i)]->category};
      if (cat == "flood" && first_flood < 0) first_flood = i;
      if (cat == "ring") last_ring = i;
      if (cat == "reply") {
        EXPECT_EQ(i, static_cast<std::ptrdiff_t>(stages.size()) - 1)
            << "reply must be the final stage";
      }
    }
    if (last_ring >= 0 && first_flood >= 0) {
      EXPECT_LT(last_ring, first_flood)
          << "ring routing must finish before the s-network flood";
      ++traces_with_ring_then_flood;
    }
  }
  // The fixed seed produces cross-segment lookups; at least one trace must
  // exercise the full ring-then-flood pipeline.
  EXPECT_GT(traces_with_ring_then_flood, 0u);
}

TEST(Trace, HopInstantsNestUnderStageSpans) {
  TracedFixture f{17};
  f.build(40);
  const auto keys = f.populate(20);
  std::size_t done = 0;
  for (const auto& key : keys) {
    f.system.lookup(f.peers[1], key, [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  ASSERT_EQ(done, keys.size());

  std::size_t hop_instants = 0;
  for (const stats::Span& s : f.recorder.spans()) {
    if (!s.instant) continue;
    const std::string_view name{s.name};
    if (name != "ring_hop" && name != "flood_hop" && name != "walk_hop" &&
        name != "climb_hop") {
      continue;
    }
    ++hop_instants;
    ASSERT_NE(s.parent, 0u) << "hop instants must nest under a span";
    const stats::Span* parent = f.recorder.find(s.parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(parent->trace_id, s.trace_id);
    // Hop instants carry their ordinal annotation.
    if (name == "ring_hop" || name == "climb_hop") {
      EXPECT_GT(arg_of(s, "hop"), 0);
    } else {
      EXPECT_GT(arg_of(s, "depth"), 0);
    }
  }
  EXPECT_GT(hop_instants, 0u);
}

TEST(Trace, BreakdownsCoverEveryLookupAndMatchOutcome) {
  TracedFixture f{19};
  f.build(40);
  const auto keys = f.populate(25);
  std::size_t succeeded = 0;
  std::size_t done = 0;
  for (const auto& key : keys) {
    f.system.lookup(f.peers[2], key, [&](proto::LookupResult r) {
      ++done;
      if (r.success) ++succeeded;
    });
  }
  f.world.sim.run();
  ASSERT_EQ(done, keys.size());

  const auto breakdowns = f.recorder.lookup_breakdowns();
  ASSERT_EQ(breakdowns.size(), keys.size());
  std::size_t successful_breakdowns = 0;
  for (const auto& b : breakdowns) {
    EXPECT_GE(b.total_ms, 0.0);
    EXPECT_GE(b.total_ms + 1e-9,
              std::max({b.climb_ms, b.ring_ms, b.reply_ms}))
        << "no single stage may exceed the root extent";
    if (b.success) ++successful_breakdowns;
  }
  EXPECT_EQ(successful_breakdowns, succeeded);

  stats::MetricsRegistry reg;
  f.recorder.collect_critical_path(reg, "trace");
  EXPECT_DOUBLE_EQ(reg.number_or("trace.lookups", -1),
                   static_cast<double>(keys.size()));
  EXPECT_DOUBLE_EQ(reg.number_or("trace.succeeded", -1),
                   static_cast<double>(succeeded));
  EXPECT_GE(reg.number_or("trace.total_ms.p95", -1),
            reg.number_or("trace.total_ms.p50", 0));
}

TEST(Trace, SpanTreesStayWellFormedUnderChurn) {
  TracedFixture f{23};
  f.build(48);
  const auto keys = f.populate(30);

  // Crash a quarter of the peers without failure detection, then look up
  // every key: some lookups fail, but every recorded trace must still be a
  // closed, parent-consistent tree.
  for (std::size_t i = 0; i < f.peers.size(); i += 4) {
    f.system.crash(f.peers[i]);
  }
  std::size_t done = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const PeerIndex origin = f.peers[(3 + i) % f.peers.size()];
    if (!f.world.network.alive(origin)) continue;
    f.system.lookup(origin, keys[i], [&](proto::LookupResult r) {
      ++done;
      if (!r.success) ++failed;
    });
  }
  f.world.sim.run();
  ASSERT_GT(done, 0u);

  for (const stats::Span* root : roots_of(f.recorder, "lookup")) {
    EXPECT_FALSE(root->open) << "every lookup root must be closed";
  }
  for (const stats::Span& s : f.recorder.spans()) {
    EXPECT_GE((s.end - s.start).as_micros(), 0);
    if (s.parent != 0) {
      const stats::Span* parent = f.recorder.find(s.parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->trace_id, s.trace_id);
    }
  }
  // Crash-induced dead ends surface as enumerated drops, not silence.
  const auto& net = f.world.network.stats();
  EXPECT_GT(net.reason_drops(proto::DropReason::kDeadReceiver) +
                net.reason_drops(proto::DropReason::kNoRoute) +
                net.reason_drops(proto::DropReason::kTtlExhausted),
            0u);
}

TEST(Trace, StoreRecordsRootSpan) {
  TracedFixture f{29};
  f.build(30);
  std::size_t done = 0;
  f.system.store(f.peers[4], "stored-key", 99, [&] { ++done; });
  f.world.sim.run();
  ASSERT_EQ(done, 1u);
  const auto store_roots = roots_of(f.recorder, "store");
  ASSERT_EQ(store_roots.size(), 1u);
  EXPECT_FALSE(store_roots.front()->open);
}

// --- Recorder mechanics ------------------------------------------------------

TEST(Trace, CapacityBoundDropsAndCounts) {
  stats::SpanRecorder small{3};
  const auto t1 = small.start_trace("lookup", "lookup", 0, sim::SimTime{});
  const auto c1 = small.begin_span(t1, "ring", "ring", 1, sim::SimTime{});
  small.instant(c1, "ring_hop", 2, sim::SimTime{});
  EXPECT_EQ(small.spans().size(), 3u);
  EXPECT_EQ(small.dropped_spans(), 0u);
  const auto overflow =
      small.begin_span(t1, "flood", "flood", 3, sim::SimTime{});
  EXPECT_FALSE(overflow.valid());
  small.instant(c1, "ring_hop", 4, sim::SimTime{});
  EXPECT_EQ(small.spans().size(), 3u);
  EXPECT_EQ(small.dropped_spans(), 2u);
  // Ending a recorded span still works at capacity.
  small.end_span(c1, sim::SimTime::millis(5));
  EXPECT_FALSE(small.find(c1.span_id)->open);
}

TEST(Trace, BeginSpanOnInvalidParentIsNoop) {
  stats::SpanRecorder r;
  const auto child =
      r.begin_span(stats::TraceContext{}, "x", "y", 0, sim::SimTime{});
  EXPECT_FALSE(child.valid());
  EXPECT_TRUE(r.spans().empty());
  r.end_span(child, sim::SimTime{});           // no-op, must not crash
  r.add_arg(child, "k", 1);                    // no-op, must not crash
  r.instant(child, "i", 0, sim::SimTime{});    // no-op, must not crash
  EXPECT_TRUE(r.spans().empty());
}

TEST(Trace, CatapultExportIsBalancedAndLoadable) {
  TracedFixture f{31};
  f.build(30);
  const auto keys = f.populate(10);
  std::size_t done = 0;
  for (const auto& key : keys) {
    f.system.lookup(f.peers[5], key, [&](proto::LookupResult) { ++done; });
  }
  f.world.sim.run();
  ASSERT_EQ(done, keys.size());

  const auto root = f.recorder.to_catapult();
  const auto* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->as_string(), "ms");
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());

  // First event is the process-name metadata record.
  const auto& meta = events->items().front();
  EXPECT_EQ(meta.find("ph")->as_string(), "M");

  std::size_t begins = 0;
  std::size_t ends = 0;
  std::set<std::int64_t> track_ids;
  for (std::size_t i = 1; i < events->items().size(); ++i) {
    const auto& ev = events->items()[i];
    const std::string& ph = ev.find("ph")->as_string();
    ASSERT_TRUE(ph == "b" || ph == "e" || ph == "n") << ph;
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("id"), nullptr);
    track_ids.insert(ev.find("id")->as_int());
  }
  EXPECT_EQ(begins, ends) << "every async begin needs a matching end";
  EXPECT_EQ(track_ids.size(), f.recorder.num_traces())
      << "each trace renders as its own async track";

  // The serialized document round-trips through the JSON parser.
  const auto parsed = stats::JsonValue::parse(root.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, root);
}

// --- Time-series sampling ----------------------------------------------------

TEST(TimeSeries, SamplesGaugesAtFixedPeriod) {
  sim::Simulator sim;
  std::int64_t work_done = 0;
  for (std::int64_t i = 1; i <= 100; ++i) {
    sim.schedule_at(sim::SimTime::millis(i * 10), [&] { ++work_done; });
  }
  stats::TimeSeriesSampler sampler{sim, sim::SimTime::millis(100)};
  sampler.add_gauge("work_done",
                    [&] { return static_cast<double>(work_done); });
  sampler.ensure_running();
  sim.run();
  const auto& series = sampler.series();
  // Events span [10ms, 1000ms]; ticks at 100, 200, ... while other events
  // remain pending.
  ASSERT_GE(series.num_samples(), 9u);
  ASSERT_EQ(series.columns.size(), 1u);
  ASSERT_EQ(series.columns[0].values.size(), series.num_samples());
  for (std::size_t i = 1; i < series.t_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(series.t_ms[i] - series.t_ms[i - 1], 100.0);
    EXPECT_GE(series.columns[0].values[i], series.columns[0].values[i - 1])
        << "cumulative gauge must be monotone";
  }
  // The sampler lapses with the queue; the simulation drained.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(work_done, 100);
}

TEST(TimeSeries, EnsureRunningRearmsAcrossPhases) {
  sim::Simulator sim;
  stats::TimeSeriesSampler sampler{sim, sim::SimTime::millis(50)};
  sampler.add_gauge("x", [] { return 1.0; });
  // Phase 1.
  sim.schedule_at(sim::SimTime::millis(200), [] {});
  sampler.ensure_running();
  sim.run();
  const auto phase1 = sampler.series().num_samples();
  EXPECT_GE(phase1, 3u);
  // Phase 2 re-arms; more samples accumulate into the same series.
  sim.schedule_at(sim.now() + sim::SimTime::millis(200), [] {});
  sampler.ensure_running();
  sim.run();
  EXPECT_GT(sampler.series().num_samples(), phase1);
}

TEST(TimeSeries, TakeMovesDataAndKeepsSchema) {
  sim::Simulator sim;
  stats::TimeSeriesSampler sampler{sim, sim::SimTime::millis(10)};
  sampler.add_gauge("g", [] { return 4.0; });
  sampler.sample_now();
  auto taken = sampler.take();
  ASSERT_EQ(taken.num_samples(), 1u);
  EXPECT_DOUBLE_EQ(taken.columns[0].values[0], 4.0);
  EXPECT_EQ(sampler.series().num_samples(), 0u);
  ASSERT_EQ(sampler.series().columns.size(), 1u);
  EXPECT_EQ(sampler.series().columns[0].name, "g");

  const auto json = taken.to_json();
  ASSERT_NE(json.find("period_ms"), nullptr);
  ASSERT_NE(json.find("t_ms"), nullptr);
  const auto* cols = json.find("series");
  ASSERT_NE(cols, nullptr);
  ASSERT_NE(cols->find("g"), nullptr);
  EXPECT_EQ(cols->find("g")->items().size(), 1u);
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndOldestFirst) {
  stats::FlightRecorder flight{16};
  for (std::uint64_t i = 0; i < 100; ++i) {
    flight.record(sim::SimTime::micros(static_cast<std::int64_t>(i)), "ev", i);
  }
  EXPECT_EQ(flight.capacity(), 16u);
  EXPECT_EQ(flight.size(), 16u);
  EXPECT_EQ(flight.total_recorded(), 100u);
  const auto tail = flight.snapshot();
  ASSERT_EQ(tail.size(), 16u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].a, 84 + i) << "snapshot must be oldest-first";
  }
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  stats::FlightRecorder flight{0};
  EXPECT_EQ(flight.capacity(), 1u);
  flight.record(sim::SimTime{}, "a", 1);
  flight.record(sim::SimTime{}, "b", 2);
  const auto tail = flight.snapshot();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].b, 0u);
  EXPECT_EQ(tail[0].a, 2u);
}

TEST(FlightRecorder, DumpIsBoundedAndWellFormed) {
  stats::FlightRecorder flight{8};
  for (std::uint64_t i = 0; i < 40; ++i) {
    flight.record(sim::SimTime::millis(static_cast<std::int64_t>(i)),
                  "net:send", i, i + 1, 64);
  }
  std::ostringstream out;
  flight.dump(out, "lookup failure");
  const std::string text = out.str();
  EXPECT_NE(text.find("flight recorder: lookup failure"), std::string::npos);
  EXPECT_NE(text.find("last 8 of 40"), std::string::npos);
  EXPECT_NE(text.find("net:send"), std::string::npos);
  // Bounded: banner + 8 event lines + end banner.
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(lines, 10);
}

TEST(FlightRecorder, ToJsonMirrorsRingContents) {
  stats::FlightRecorder flight{4};
  for (std::uint64_t i = 0; i < 6; ++i) {
    flight.record(sim::SimTime::millis(static_cast<std::int64_t>(i)), "k", i);
  }
  const auto json = flight.to_json();
  EXPECT_EQ(json.find("capacity")->as_int(), 4);
  EXPECT_EQ(json.find("total_recorded")->as_int(), 6);
  const auto* events = json.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 4u);
  EXPECT_EQ(events->items().front().find("a")->as_int(), 2);
  EXPECT_EQ(events->items().back().find("a")->as_int(), 5);
}

TEST(FlightRecorder, TailsTheKernelTraceHook) {
  struct Tail : sim::Observer {
    Tail(stats::FlightRecorder& f, sim::Simulator& s) : flight(f), sim(s) {}
    void on_event(const sim::TraceEvent& ev) override {
      flight.record(sim.now(), "sim:event",
                    static_cast<std::uint64_t>(ev.kind), ev.seq);
    }
    stats::FlightRecorder& flight;
    sim::Simulator& sim;
  };
  sim::Simulator sim;
  stats::FlightRecorder flight{32};
  Tail tail{flight, sim};
  sim.add_observer(&tail);
  for (std::int64_t i = 0; i < 200; ++i) {
    sim.schedule_at(sim::SimTime::micros(i), [] {});
  }
  sim.run();
  EXPECT_EQ(flight.size(), 32u);
  // 200 schedules + 200 fires went through the hook.
  EXPECT_EQ(flight.total_recorded(), 400u);
}

}  // namespace
}  // namespace hp2p
