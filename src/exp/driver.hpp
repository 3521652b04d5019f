// The experiment driver every run shares, whatever overlay it drives: the
// hybrid harness and the Chord and Gnutella baselines build their world on
// a proto::Substrate, pace each phase's ops with an OpChain, and report
// joins and lookups, time phases and collect results through a RunDriver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <set>
#include <vector>

#include "exp/harness.hpp"
#include "proto/data_store.hpp"

namespace hp2p::exp {

/// The lookup deadline for walks over `peers` ring members, never below
/// `configured`: N x 250 ms + 15 s, as a ring walk can legitimately take
/// ~N hops of ~100 ms on a transit-stub underlay (Table 2 counts full walks).
[[nodiscard]] inline sim::Duration lookup_deadline(sim::Duration configured,
                                                   std::uint32_t peers) {
  return std::max(configured, sim::SimTime::millis(
                                  static_cast<std::int64_t>(peers) * 250 +
                                  15'000));
}

/// Runs the driver's op(k) for k = 0 .. n-1 at start + k * spacing, start
/// being now().  The ops take the (time, seq) places of n events scheduled
/// here and now, but only the next one waits in the kernel's queue: op k
/// schedules op k + 1, under a seq reserved with the others, as it fires.
/// So the queue holds the work in flight rather than every driver op of
/// the phase, and the dispatch order is unchanged (DESIGN.md section 5.20).
/// Allocates nothing; the chain must outlive the run that fires the ops.
/// No TieBreakPolicy may be installed: ops not yet queued would be missing
/// from its co-enabled sets.
template <typename Op>
class OpChain {
 public:
  OpChain(sim::Simulator& sim, std::size_t n, sim::Duration spacing, Op op)
      : sim_(sim),
        n_(n),
        spacing_us_(spacing.as_micros()),
        start_(sim.now()),
        op_(std::move(op)) {
    // The ops are tagged workload; each re-tags the work it starts (a join
    // to membership, a store to data), so only the driver's bookkeeping
    // stays attributed here.
    const sim::ComponentScope tag{sim, sim::Component::kWorkload};
    seqs_ = sim.reserve_seq(n);
    if (n_ > 0) launch(0);
  }
  OpChain(const OpChain&) = delete;
  OpChain& operator=(const OpChain&) = delete;

  /// start + n * spacing: when op n would fire, were there one.
  [[nodiscard]] sim::SimTime end() const {
    return start_ + sim::SimTime::micros(static_cast<std::int64_t>(n_) *
                                         spacing_us_);
  }

 private:
  void launch(std::size_t k) {
    sim_.schedule_reserved(
        start_ + sim::SimTime::micros(static_cast<std::int64_t>(k) *
                                      spacing_us_),
        seqs_.nth(k), [this, k] {
          if (k + 1 < n_) launch(k + 1);
          op_(k);
        });
  }

  sim::Simulator& sim_;
  std::size_t n_;
  std::int64_t spacing_us_;
  sim::SimTime start_;
  sim::Simulator::Reservation seqs_;
  Op op_;
};

/// Fills one RunResult as a run goes.  `world` must outlive it.  The join
/// and lookup callbacks it hands out are one pointer, so a std::function
/// stores them without allocating.
class RunDriver {
 public:
  /// Phase timing starts here.  `flight` (optional, not owned) gets its
  /// tail dumped to stderr on the run's first failed lookup.
  explicit RunDriver(proto::Substrate& world,
                     stats::FlightRecorder* flight = nullptr)
      : world_(world), flight_(flight), sim_mark_(world.sim.now()) {}
  RunDriver(const RunDriver&) = delete;
  RunDriver& operator=(const RunDriver&) = delete;

  RunResult result;

  /// The callback for an overlay's join.
  [[nodiscard]] auto on_join() {
    return [this](const proto::JoinResult& r) {
      ++result.joins_completed;
      result.join_latency_ms.add(r.latency.as_millis());
      result.join_hops.add(static_cast<double>(r.request_hops));
    };
  }

  /// Closes the phase `name`: host wall time and simulated time since the
  /// previous phase ended.
  void end_phase(const char* name) {
    const double wall_ms = wall_clock_ms();
    result.phases.push_back(PhaseTiming{
        name, wall_ms - wall_mark_ms_,
        (world_.sim.now() - sim_mark_).as_millis()});
    wall_mark_ms_ = wall_ms;
    sim_mark_ = world_.sim.now();
  }

  /// The lookup phase: `num_lookups` ops, one per `spacing` from now.  Op k
  /// calls launch(report), which starts one lookup answered through
  /// `report` and returns true, or returns false when it finds no one to
  /// ask.  arm() runs once the first op is queued, before the kernel does.
  /// With `until_last_answer` (maintenance that never lets the queue
  /// drain) the phase ends once every lookup has been launched and
  /// answered, or at span + `timeout` + 5 s should a launch find no one to
  /// ask.  Otherwise the queue drains by itself, idle timers included.
  /// Either way every op has fired and every lookup has answered (by its
  /// timeout at the latest) when this returns, so no queued event still
  /// refers to the chain or the report below.
  template <typename Launch, typename Arm>
  void run_lookups(std::size_t num_lookups, sim::Duration spacing,
                   bool until_last_answer, sim::Duration timeout,
                   Launch launch, Arm arm) {
    sim::Simulator& sim = world_.sim;
    std::size_t unlaunched = num_lookups;
    std::size_t outstanding = 0;
    const auto report = [&](const proto::LookupResult& r) {
      result.lookups.record(r);
      if (r.success) {
        result.lookup_latency_ms.add(r.latency.as_millis());
        result.lookup_hops.add(static_cast<double>(r.request_hops));
      } else if (flight_ != nullptr && result.lookups.failed == 1) {
        flight_->dump(std::cerr, "first lookup failure");
      }
      --outstanding;
      if (until_last_answer && unlaunched == 0 && outstanding == 0) {
        sim.stop();
      }
    };
    OpChain chain{sim, num_lookups, spacing, [&](std::size_t) {
                    --unlaunched;
                    ++outstanding;
                    if (!launch(std::ref(report))) --outstanding;
                  }};
    arm();
    if (until_last_answer) {
      sim.run_until(chain.end() + timeout + sim::SimTime::seconds(5));
    } else {
      sim.run();
    }
  }

  /// End of run: the world's counters; each live joined peer's item count
  /// (`live` in index order); and the durability census, which of
  /// `stored_ids` some peer of `live` still holds.
  template <typename StoreOf>
  void collect(const std::vector<DataId>& stored_ids,
               const std::vector<PeerIndex>& live, StoreOf store_of) {
    result.network = world_.network.stats();
    result.sim_stats = world_.sim.stats();
    result.arena_slots = world_.sim.arena_slots();
    result.routing_table_bytes = world_.underlay.routing_memory_bytes();
    result.hosts = world_.underlay.num_hosts();
    // Ordered sets keep the scan deterministic and dedup the corpus
    // (interest-band collisions can store one id twice).
    std::set<std::uint64_t> stored;
    for (const DataId id : stored_ids) stored.insert(id.value());
    std::set<std::uint64_t> recoverable;
    for (const PeerIndex p : live) {
      const proto::DataStore& store = store_of(p);
      result.items_per_peer.push_back(store.size());
      store.for_each([&](const proto::DataItem& item) {
        if (stored.count(item.id.value()) > 0) {
          recoverable.insert(item.id.value());
        }
      });
    }
    result.items_stored = stored.size();
    result.items_recoverable = recoverable.size();
  }

 private:
  /// Host wall time is measurement output only: it never feeds back into
  /// the simulation, so determinism is preserved.
  static double wall_clock_ms() {
    // lint:allow(wallclock)
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(now).count();
  }

  proto::Substrate& world_;
  stats::FlightRecorder* flight_;
  double wall_mark_ms_ = wall_clock_ms();
  sim::SimTime sim_mark_;
};

}  // namespace hp2p::exp
