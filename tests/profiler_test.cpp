// stats::Profiler attribution tests: a synthetic simulator run with known
// per-component event counts must come back with exactly those counts, the
// nested-scope paths must roll up correctly, message classes must accrue
// bytes, and both the disabled and the enabled steady-state paths must be
// allocation-free.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_stats.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/json.hpp"
#include "stats/profiler.hpp"

namespace hp2p::stats {
namespace {

using sim::Component;
using sim::ComponentScope;
using sim::SimTime;

TEST(Profiler, AttributesEventCountsToSchedulingComponent) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  // Events inherit the component active at schedule time, so each of these
  // blocks pins a known number of dispatches on one component.
  {
    ComponentScope scope{sim, Component::kRing};
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(SimTime::millis(i + 1), [] {});
    }
  }
  {
    ComponentScope scope{sim, Component::kFlood};
    for (int i = 0; i < 25; ++i) {
      sim.schedule_at(SimTime::millis(100 + i), [] {});
    }
  }
  {
    ComponentScope scope{sim, Component::kMembership};
    for (int i = 0; i < 7; ++i) {
      sim.schedule_at(SimTime::millis(200 + i), [] {});
    }
  }
  sim.run();

  // enters = scope activation (1) + one frame per dispatched event.
  EXPECT_EQ(prof.component_total(Component::kRing).enters, 40u + 1u);
  EXPECT_EQ(prof.component_total(Component::kFlood).enters, 25u + 1u);
  EXPECT_EQ(prof.component_total(Component::kMembership).enters, 7u + 1u);
  EXPECT_EQ(prof.component_total(Component::kChaos).enters, 0u);
  EXPECT_EQ(prof.truncated_frames(), 0u);
}

TEST(Profiler, TagInheritanceIsTransitive) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  // An event scheduled *by* a ring-tagged event runs as ring too, without
  // any scope at the rescheduling site -- the kernel stamps the scheduler's
  // component on the new slot.
  {
    ComponentScope scope{sim, Component::kRing};
    sim.schedule_at(SimTime::millis(1), [&sim] {
      sim.schedule_after(SimTime::millis(1), [] {});
    });
  }
  sim.run();
  EXPECT_EQ(prof.component_total(Component::kRing).enters, 2u + 1u);
}

TEST(Profiler, NestedScopesSplitSelfTimeByInnermostComponent) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  {
    ComponentScope outer{sim, Component::kData};
    sim.schedule_at(SimTime::millis(1), [&sim] {
      ComponentScope inner{sim, Component::kBypass};
      (void)inner;
    });
  }
  sim.run();

  EXPECT_EQ(prof.component_total(Component::kData).enters, 1u + 1u);
  EXPECT_EQ(prof.component_total(Component::kBypass).enters, 1u);
  // Both the dispatch frame and the nested scope closed cleanly.
  EXPECT_LE(prof.attributed_ns(), prof.dispatch_ns_total());
}

TEST(Profiler, ScopeNamingTheCurrentComponentOpensNoFrame) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  // A flood handler scoping kFlood inside its own kFlood event: the scope
  // keeps the tag and opens nothing, so the event is one frame, and what
  // the handler schedules still runs as kFlood.
  {
    ComponentScope scope{sim, Component::kFlood};
    sim.schedule_at(SimTime::millis(1), [&sim] {
      ComponentScope same{sim, Component::kFlood};
      EXPECT_EQ(sim.current_component(), Component::kFlood);
      {
        ComponentScope nested_same{sim, Component::kFlood};
        sim.schedule_after(SimTime::millis(1), [] {});
      }
      EXPECT_EQ(sim.current_component(), Component::kFlood);
    });
  }
  sim.run();

  // The scheduling scope plus two dispatches; neither inner scope counts.
  EXPECT_EQ(prof.component_total(Component::kFlood).enters, 1u + 2u);
  EXPECT_EQ(sim.current_component(), Component::kKernel);
  EXPECT_LE(prof.attributed_ns(), prof.dispatch_ns_total());
}

TEST(Profiler, MessageClassesAccrueCountsAndBytes) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  {
    ComponentScope scope{sim, Component::kTransport};
    for (int i = 0; i < 3; ++i) {
      sim.schedule_at(SimTime::millis(i + 1), [&prof] {
        prof.message(2, "data", 512);
      });
    }
    sim.schedule_at(SimTime::millis(10), [&prof] {
      prof.message(0, "control", 64);
    });
  }
  sim.run();

  const JsonValue profile = prof.to_json();
  const JsonValue* data = profile.find_path("message_types.data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->find("messages")->as_int(), 3);
  EXPECT_EQ(data->find("bytes")->as_int(), 3 * 512);
  const JsonValue* control = profile.find_path("message_types.control");
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->find("messages")->as_int(), 1);
  EXPECT_EQ(control->find("bytes")->as_int(), 64);
}

TEST(Profiler, DepthOverflowFoldsIntoAncestorWithoutCorruption) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  sim.schedule_at(SimTime::millis(1), [&sim] {
    // 1 dispatch frame + 20 nested scopes blows past kMaxDepth = 16; the
    // excess folds into the ancestor and must unwind cleanly.  The scopes
    // alternate: one naming the current component opens no frame.
    std::vector<std::unique_ptr<ComponentScope>> scopes;
    for (int i = 0; i < 20; ++i) {
      scopes.push_back(std::make_unique<ComponentScope>(
          sim, i % 2 == 0 ? Component::kRing : Component::kFlood));
    }
  });
  sim.run();

  EXPECT_GT(prof.truncated_frames(), 0u);
  // Post-overflow the profiler still balances: a fresh tagged event lands
  // on its component as usual.
  {
    ComponentScope scope{sim, Component::kAudit};
    sim.schedule_after(SimTime::millis(1), [] {});
  }
  sim.run();
  EXPECT_EQ(prof.component_total(Component::kAudit).enters, 1u + 1u);
}

TEST(Profiler, PathsPastTheTableFoldIntoTheOverflowBucket) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);

  // Two depth-1 components, each with every two-level nesting below it
  // whose levels alternate (a scope naming the current component opens no
  // frame): 2 * (12 + 12 * 12) distinct paths, more than kMaxPaths holds.
  constexpr std::uint64_t kN = sim::kNumComponents;
  static_assert(2 * ((kN - 1) + (kN - 1) * (kN - 1)) > Profiler::kMaxPaths);
  for (const Component top : {Component::kRing, Component::kFlood}) {
    ComponentScope scope{sim, top};
    sim.schedule_at(SimTime::millis(1), [&sim, top] {
      for (std::size_t a = 0; a < kN; ++a) {
        const auto outer_c = static_cast<Component>(a);
        if (outer_c == top) continue;
        for (std::size_t b = 0; b < kN; ++b) {
          const auto inner_c = static_cast<Component>(b);
          if (inner_c == outer_c) continue;
          ComponentScope outer{sim, outer_c};
          ComponentScope inner{sim, inner_c};
        }
      }
    });
  }
  sim.run();

  EXPECT_GT(prof.truncated_frames(), 0u);
  // Folded or not, every frame is counted once: 2 scheduling scopes,
  // 4 kernel frames (each schedule grows the empty slot arena and heap,
  // and the kernel charges its own growth), 2 dispatches and
  // 2 * 12 * 12 * 2 nested scopes (13 components).
  std::uint64_t enters = 0;
  for (std::size_t c = 0; c < kN; ++c) {
    enters += prof.component_total(static_cast<Component>(c)).enters;
  }
  EXPECT_EQ(enters, 2u + 4u + 2u + 2u * (kN - 1) * (kN - 1) * 2u);
  EXPECT_LE(prof.attributed_ns(), prof.dispatch_ns_total());
}

TEST(Profiler, ExportsWellFormedJsonAndCollapsedStacks) {
  sim::Simulator sim;
  Profiler prof;
  sim.add_observer(&prof);
  {
    ComponentScope scope{sim, Component::kRing};
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::millis(i + 1), [&sim] {
        ComponentScope inner{sim, Component::kFlood};
        (void)inner;
      });
    }
  }
  sim.run();

  const JsonValue profile = prof.to_json();
  EXPECT_TRUE(profile.find("enabled")->as_bool());
  EXPECT_GT(profile.find("dispatch_ns_total")->as_int(), 0);
  const JsonValue* components = profile.find("components");
  ASSERT_NE(components, nullptr);
  EXPECT_NE(components->find("ring"), nullptr);

  const std::string path = ::testing::TempDir() + "profiler_test.collapsed";
  ASSERT_TRUE(prof.write_collapsed(path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_nested = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    // Suffix must be a plain integer (self nanoseconds).
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
    }
    if (line.rfind("kernel;ring;flood ", 0) == 0) saw_nested = true;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_nested) << "nested ring;flood path missing";
  std::remove(path.c_str());
}

TEST(Profiler, CountsAreDeterministicAcrossRuns) {
  const auto run_once = [] {
    sim::Simulator sim;
    Profiler prof;
    sim.add_observer(&prof);
    {
      ComponentScope scope{sim, Component::kReplication};
      for (int i = 0; i < 64; ++i) {
        sim.schedule_at(SimTime::millis(i + 1), [&sim] {
          if (sim.now() < SimTime::millis(32)) {
            sim.schedule_after(SimTime::seconds(1), [] {});
          }
        });
      }
    }
    sim.run();
    return prof.component_total(Component::kReplication);
  };
  const auto a = run_once();
  const auto b = run_once();
  // CPU time differs run to run; the attributed structure must not.
  EXPECT_EQ(a.enters, b.enters);
  EXPECT_GT(a.enters, 64u);
}

/// Steady-state scheduling through a warm arena must not allocate -- first
/// with no observer (the zero-cost-off guarantee), then with the
/// profiler attached (its accumulators are preallocated).
void expect_zero_alloc_steady_state(Profiler* prof) {
  sim::Simulator sim;
  if (prof != nullptr) sim.add_observer(prof);

  // Warm-up: grow the arena, the heap, and (when profiling) insert every
  // path into the accumulator table.
  {
    ComponentScope scope{sim, Component::kRing};
    for (int i = 0; i < 256; ++i) {
      sim.schedule_after(SimTime::millis(i + 1), [] {});
    }
  }
  sim.run();

  const std::uint64_t allocs_before = alloc_stats::allocation_count();
  {
    ComponentScope scope{sim, Component::kRing};
    for (int i = 0; i < 256; ++i) {
      sim.schedule_after(SimTime::millis(i + 1), [] {});
    }
  }
  sim.run();
  const std::uint64_t allocs_after = alloc_stats::allocation_count();
  EXPECT_EQ(allocs_after - allocs_before, 0u);
}

TEST(Profiler, DisabledPathSteadyStateIsAllocationFree) {
  expect_zero_alloc_steady_state(nullptr);
}

TEST(Profiler, EnabledPathSteadyStateIsAllocationFree) {
  Profiler prof;
  expect_zero_alloc_steady_state(&prof);
}

}  // namespace
}  // namespace hp2p::stats
