// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hp2p::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3000);
  EXPECT_DOUBLE_EQ(SimTime::micros(1500).as_millis(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.5).as_seconds(), 2.5);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(SimTime::millis(1) + SimTime::millis(2), SimTime::millis(3));
  EXPECT_EQ(SimTime::millis(5) - SimTime::millis(2), SimTime::millis(3));
  SimTime t = SimTime::millis(1);
  t += SimTime::millis(4);
  EXPECT_EQ(t, SimTime::millis(5));
}

TEST(SimTime, Ordering) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_LT(SimTime::millis(999), SimTime::never());
}

TEST(Simulator, StartsAtZeroAndIdle) {
  Simulator s;
  EXPECT_EQ(s.now(), SimTime{});
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::millis(30));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  SimTime fired{};
  s.schedule_at(SimTime::millis(10), [&] {
    s.schedule_after(SimTime::millis(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, SimTime::millis(15));
}

TEST(Simulator, PastSchedulesClampToNow) {
  Simulator s;
  SimTime fired = SimTime::never();
  s.schedule_at(SimTime::millis(10), [&] {
    s.schedule_at(SimTime::millis(1), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, SimTime::millis(10));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const TimerId id = s.schedule_at(SimTime::millis(5), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.stats().events_cancelled, 1u);
}

TEST(Simulator, CancelTwiceFails) {
  Simulator s;
  const TimerId id = s.schedule_at(SimTime::millis(5), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelNullHandleFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(TimerId{}));
}

TEST(Simulator, CancelAfterFireFails) {
  Simulator s;
  const TimerId id = s.schedule_at(SimTime::millis(5), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::millis(10), [&] { ++fired; });
  s.schedule_at(SimTime::millis(20), [&] { ++fired; });
  s.schedule_at(SimTime::millis(30), [&] { ++fired; });
  s.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::millis(20));
  s.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator s;
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(s.now(), SimTime::millis(100));
}

TEST(Simulator, StopEndsTheRunAtTheStoppingEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::millis(10), [&] { ++fired; });
  s.schedule_at(SimTime::millis(20), [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(SimTime::millis(30), [&] { ++fired; });
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::millis(20));  // not advanced to the deadline
  EXPECT_EQ(s.pending_events(), 1u);
  s.schedule_at(SimTime::millis(40), [&] { s.stop(); });
  s.run();  // a fresh run, stopped again by the event at 40 ms
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), SimTime::millis(40));
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(SimTime::millis(1), chain);
  };
  s.schedule_after(SimTime::millis(1), chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), SimTime::millis(100));
}

TEST(Simulator, StatsCountScheduledAndExecuted) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_after(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.stats().events_scheduled, 5u);
  EXPECT_EQ(s.stats().events_executed, 5u);
}

TEST(Simulator, PendingEventsTracksLiveCount) {
  Simulator s;
  const TimerId a = s.schedule_after(SimTime::millis(1), [] {});
  s.schedule_after(SimTime::millis(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ManyTimersStressOrdering) {
  // Property: with many interleaved schedules/cancels, execution times are
  // monotone non-decreasing.
  Simulator s;
  std::vector<std::int64_t> times;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    const auto when = SimTime::micros((i * 7919) % 5000);
    ids.push_back(
        s.schedule_at(when, [&times, &s] { times.push_back(s.now().as_micros()); }));
  }
  for (size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run();
  for (size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
  EXPECT_EQ(times.size(), 1000u - (1000u + 2) / 3);
}

TEST(SimTime, ExpiredBoundaryIsInclusive) {
  // The one expiry convention everywhere: expired iff deadline <= now.
  const SimTime deadline = SimTime::millis(5);
  EXPECT_FALSE(expired(deadline, SimTime::millis(4)));
  EXPECT_TRUE(expired(deadline, deadline));
  EXPECT_TRUE(expired(deadline, SimTime::millis(6)));
}

TEST(Simulator, TraceHookSeesScheduleFireCancel) {
  struct Recorder : Observer {
    std::vector<TraceEvent> events;
    void on_event(const TraceEvent& ev) override { events.push_back(ev); }
  };
  Simulator s;
  Recorder first;
  Recorder second;
  s.add_observer(&first);
  s.add_observer(&second);
  s.schedule_at(SimTime::millis(1), [] {});
  const TimerId gone = s.schedule_at(SimTime::millis(2), [] {});
  ASSERT_TRUE(s.cancel(gone));
  s.run();
  const std::vector<TraceEvent>& events = first.events;
  ASSERT_EQ(events.size(), 4u);  // two schedules, one cancel, one fire
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kSchedule);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kSchedule);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kCancel);
  EXPECT_EQ(events[2].seq, events[1].seq);
  EXPECT_EQ(events[2].when, SimTime::millis(2));
  EXPECT_EQ(events[3].kind, TraceEvent::Kind::kFire);
  EXPECT_EQ(events[3].seq, events[0].seq);
  EXPECT_EQ(events[3].when, SimTime::millis(1));
  // A second observer sees the identical sequence.
  ASSERT_EQ(second.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(second.events[i].kind, events[i].kind);
    EXPECT_EQ(second.events[i].seq, events[i].seq);
    EXPECT_EQ(second.events[i].when, events[i].when);
  }
}

TEST(Simulator, ObserversGetOnlyTheHookGroupsTheyName) {
  struct Counter : Observer {
    explicit Counter(unsigned g) : groups(g) {}
    unsigned hooks() const override { return groups; }
    void on_event(const TraceEvent&) override { ++events; }
    void enter(Component) override { ++frames; }
    void message(std::size_t, const char*, std::uint64_t) override {
      ++messages;
    }
    unsigned groups;
    int events = 0;
    int frames = 0;
    int messages = 0;
  };
  Simulator s;
  Counter trace{Observer::kTrace};
  Counter frames{Observer::kFrames};
  Counter both{Observer::kTrace | Observer::kFrames};
  s.add_observer(&trace);
  s.add_observer(&frames);
  s.add_observer(&both);
  s.schedule_at(SimTime::millis(1), [&s] { s.note_message(0, "control", 64); });
  s.run();
  EXPECT_EQ(trace.events, 2);  // the schedule and the fire
  EXPECT_EQ(trace.frames, 0);
  EXPECT_EQ(trace.messages, 0);
  EXPECT_EQ(frames.events, 0);
  EXPECT_EQ(frames.frames, 1);
  EXPECT_EQ(frames.messages, 1);
  EXPECT_EQ(both.events, 2);
  EXPECT_EQ(both.frames, 1);
  EXPECT_EQ(both.messages, 1);
  // Removal detaches an observer from both groups.
  s.remove_observer(&both);
  s.schedule_at(SimTime::millis(2), [] {});
  s.run();
  EXPECT_EQ(both.events, 2);
  EXPECT_EQ(both.frames, 1);
  EXPECT_EQ(trace.events, 4);
  EXPECT_EQ(frames.frames, 2);
}

TEST(Simulator, CorpseSkipAccountingIsConsistent) {
  Simulator s;
  std::vector<TimerId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.schedule_at(SimTime::millis(i + 1), [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending_events(), 3u);
  s.run_until(SimTime::millis(10));
  EXPECT_EQ(s.stats().events_scheduled, 6u);
  EXPECT_EQ(s.stats().events_cancelled, 3u);
  EXPECT_EQ(s.stats().events_executed, 3u);
  EXPECT_EQ(s.stats().corpses_skipped, 3u);
  EXPECT_EQ(s.now(), SimTime::millis(10));
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepSkipsCorpsesLikeRunUntil) {
  Simulator s;
  const TimerId a = s.schedule_at(SimTime::millis(1), [] {});
  s.schedule_at(SimTime::millis(2), [] {});
  s.cancel(a);
  EXPECT_TRUE(s.step());  // fires the live event, discarding the corpse
  EXPECT_EQ(s.now(), SimTime::millis(2));
  EXPECT_EQ(s.stats().corpses_skipped, 1u);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ReservedSeqFiresAheadOfLaterSchedulesForTheSameInstant) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::millis(5), [&] { order.push_back(0); });
  const Simulator::Reservation r = s.reserve_seq();
  s.schedule_at(SimTime::millis(5), [&] { order.push_back(2); });
  // Scheduled from inside a later event, yet it holds the place it took.
  s.schedule_at(SimTime::millis(1), [&] {
    s.schedule_reserved(SimTime::millis(5), r, [&] { order.push_back(1); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.stats().events_scheduled, 4u);
  EXPECT_EQ(s.stats().events_executed, 4u);
}

TEST(Simulator, ReservationCarriesTheTagAndFootprintOfItsMoment) {
  struct Recorder final : TieBreakPolicy {
    std::vector<CoEnabledEvent> fired;
    std::size_t choose(const CoEnabledEvent* events, std::size_t) override {
      fired.push_back(events[0]);
      return 0;
    }
  };
  Simulator s;
  Recorder rec;
  s.set_tie_break_policy(&rec);
  Simulator::Reservation r;
  {
    const ComponentScope scope{s, Component::kRing};
    const FootprintScope fps{s, Footprint::on({7})};
    r = s.reserve_seq();
  }
  s.schedule_reserved(SimTime::millis(2), r, [] {});
  s.schedule_at(SimTime::millis(2), [] {});
  s.run();
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_EQ(rec.fired[0].seq, r.seq);
  EXPECT_EQ(rec.fired[0].comp, Component::kRing);
  EXPECT_FALSE(rec.fired[0].fp.wildcard);
  EXPECT_EQ(rec.fired[0].fp.peers[0], 7u);
  EXPECT_EQ(rec.fired[1].comp, Component::kKernel);
  EXPECT_TRUE(rec.fired[1].fp.wildcard);
}

/// Drives a Simulator with a seeded random interleaving of schedule_at,
/// cancel, reserve_seq / schedule_reserved, step, run_until and
/// next_event_time, many of them at exactly tied times, and checks every
/// dispatch against a reference: the pending set ordered by (when, seq),
/// with the seqs mirrored from the kernel's numbering (one per
/// schedule_at, n per reserve_seq(n)).  Fired events schedule, reserve
/// and cancel too.  As a TieBreakPolicy it can also pick a random member
/// of each co-enabled set, checking that the set is exactly the
/// reference's earliest tied events, which covers step_choice's push-back
/// of the members it did not pick.
class KernelDifferential final : public TieBreakPolicy {
 public:
  KernelDifferential(std::uint64_t seed, bool choose)
      : rng_(seed), choose_(choose) {
    if (choose_) sim_.set_tie_break_policy(this);
  }

  /// One random operation, then the counts must agree.
  void random_op() {
    const std::size_t op = rng_.index(10);
    if (op < 3) {
      schedule_one();
    } else if (op == 3) {
      reserve_block();
    } else if (op == 4) {
      use_reservation();
    } else if (op == 5) {
      cancel_one();
    } else if (op < 8) {
      const bool any = !pending_.empty();
      EXPECT_EQ(sim_.step(), any);
    } else if (op == 8) {
      const SimTime deadline =
          sim_.now() +
          SimTime::millis(static_cast<std::int64_t>(rng_.index(3)));
      sim_.run_until(deadline);
      EXPECT_EQ(sim_.now(), deadline);
      if (!pending_.empty()) {
        EXPECT_GT(pending_.begin()->first, deadline);
      }
    } else {
      EXPECT_EQ(sim_.next_event_time(), pending_.empty()
                                            ? SimTime::never()
                                            : pending_.begin()->first);
    }
    EXPECT_EQ(sim_.pending_events(), pending_.size());
  }

  /// Runs the queue dry; every event still fires in reference order.
  void drain() {
    sim_.run();
    EXPECT_TRUE(pending_.empty());
    EXPECT_TRUE(sim_.idle());
    const SimulatorStats& st = sim_.stats();
    EXPECT_EQ(st.events_executed, fired_);
    EXPECT_EQ(st.events_scheduled, st.events_executed + st.events_cancelled);
  }

  std::size_t choose(const CoEnabledEvent* events, std::size_t n) override {
    auto it = pending_.begin();
    for (std::size_t i = 0; i < n; ++i, ++it) {
      EXPECT_TRUE(it != pending_.end());
      if (it == pending_.end()) return 0;
      EXPECT_EQ(events[i].when, it->first);
      EXPECT_EQ(events[i].seq, it->second);
    }
    // The set is complete: the next pending event is strictly later.
    if (it != pending_.end()) {
      EXPECT_GT(it->first, events[0].when);
    }
    if (n > 1) ++multi_choices_;
    const std::size_t pick = rng_.index(n);
    picked_ = events[pick].seq;
    return pick;
  }

  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] std::uint64_t tied_fires() const { return tied_fires_; }
  [[nodiscard]] std::uint64_t multi_choices() const { return multi_choices_; }

 private:
  struct Handle {
    TimerId id;
    SimTime when;
    std::uint64_t seq;
  };

  /// Mostly now + 0..3 ms (ties), sometimes the past (clamped to now) or
  /// far ahead.
  SimTime pick_time() {
    const std::size_t r = rng_.index(10);
    if (r == 0) return sim_.now() - SimTime::millis(1);
    if (r == 1) return sim_.now() + SimTime::seconds(1);
    return sim_.now() + SimTime::millis(static_cast<std::int64_t>(r % 4));
  }

  Simulator::Action fire_action(SimTime when, std::uint64_t seq) {
    return [this, when, seq] {
      if (pending_.empty()) {
        ADD_FAILURE() << "seq " << seq << " fired with nothing pending";
        return;
      }
      const std::uint64_t expected =
          choose_ ? picked_ : pending_.begin()->second;
      EXPECT_EQ(seq, expected);
      EXPECT_EQ(sim_.now(), when);
      pending_.erase({when, seq});
      if (fired_++ > 0 && when == last_fire_) ++tied_fires_;
      last_fire_ = when;
      if (rng_.chance(0.3)) schedule_one();
      if (rng_.chance(0.2)) use_reservation();
      if (rng_.chance(0.1)) reserve_block();
      if (rng_.chance(0.1)) cancel_one();
    };
  }

  void track(TimerId id, SimTime when, std::uint64_t seq) {
    pending_.emplace(when, seq);
    handles_.push_back(Handle{id, when, seq});
  }

  void schedule_one() {
    const SimTime at = pick_time();  // may lie in the past: the kernel clamps
    const SimTime when = std::max(at, sim_.now());
    const std::uint64_t seq = next_seq_++;
    track(sim_.schedule_at(at, fire_action(when, seq)), when, seq);
  }

  void reserve_block() {
    const std::uint64_t n = 1 + rng_.index(4);
    const Simulator::Reservation r = sim_.reserve_seq(n);
    EXPECT_EQ(r.seq, next_seq_);
    next_seq_ += n;
    for (std::uint64_t k = 0; k < n; ++k) unused_.push_back(r.nth(k));
  }

  void use_reservation() {
    if (unused_.empty()) return;
    const std::size_t i = rng_.index(unused_.size());
    const Simulator::Reservation r = unused_[i];
    unused_[i] = unused_.back();
    unused_.pop_back();
    const SimTime at = pick_time();
    const SimTime when = std::max(at, sim_.now());
    track(sim_.schedule_reserved(at, r, fire_action(when, r.seq)), when,
          r.seq);
  }

  void cancel_one() {
    if (handles_.empty()) return;
    const Handle h = handles_[rng_.index(handles_.size())];
    const bool live = pending_.erase({h.when, h.seq}) == 1;
    EXPECT_EQ(sim_.cancel(h.id), live);
  }

  Simulator sim_;
  Rng rng_;
  bool choose_;
  std::set<std::pair<SimTime, std::uint64_t>> pending_;  // the reference
  std::vector<Handle> handles_;  // every event ever scheduled
  std::vector<Simulator::Reservation> unused_;
  std::uint64_t next_seq_ = 1;  // mirrors the kernel's numbering
  std::uint64_t picked_ = 0;    // the policy's last pick
  std::uint64_t fired_ = 0;
  std::uint64_t tied_fires_ = 0;
  std::uint64_t multi_choices_ = 0;
  SimTime last_fire_{};
};

TEST(Simulator, RandomInterleavingsFireInWhenSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    KernelDifferential k{seed, /*choose=*/false};
    for (int i = 0; i < 2000; ++i) k.random_op();
    k.drain();
    EXPECT_GT(k.fired(), 1000u);
    EXPECT_GT(k.tied_fires(), k.fired() / 4) << "too few exact-time ties";
  }
}

TEST(Simulator, RandomInterleavingsOfferExactTieSetsToThePolicy) {
  std::uint64_t multi = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    KernelDifferential k{seed, /*choose=*/true};
    for (int i = 0; i < 2000; ++i) k.random_op();
    k.drain();
    EXPECT_GT(k.fired(), 1000u);
    multi += k.multi_choices();
  }
  EXPECT_GT(multi, 1000u) << "the push-back path was barely exercised";
}

}  // namespace
}  // namespace hp2p::sim
