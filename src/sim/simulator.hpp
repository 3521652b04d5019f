// Discrete-event simulation kernel.
//
// Substitutes for the NS2 scheduler the paper ran on: a single-threaded,
// deterministic event loop.  Events at equal timestamps execute in the order
// they were scheduled (a monotone sequence number breaks ties), so a run is
// a pure function of (parameters, seed).
//
// Cancellation is lazy: cancel() frees the slot and the queue skips the
// corpse on pop, which keeps schedule/cancel O(log n) without heap surgery.
// The protocols cancel timers constantly (every HELLO reset), so this
// matters.
//
// The queue is a 4-ary min-heap of (when, seq, slot) items: a pop sifts
// down half as many levels as a binary heap's, and (when, seq) is a total
// order, so the pop order is the same as any other heap's.
//
// Storage is an index-based slot arena: actions live in a flat vector of
// reusable slots (free-list recycling) instead of a node-allocating hash
// map, and the action type is an InlineFunction, so the steady-state
// schedule/dispatch path performs no heap allocations once the arena and
// heap vectors have reached their high-water capacity (asserted by the
// micro_kernel zero-allocation bench).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "sim/time.hpp"

namespace hp2p::sim {

/// Handle to a scheduled event; valid until the event fires or is cancelled.
class TimerId {
 public:
  constexpr TimerId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(TimerId, TimerId) = default;

 private:
  friend class Simulator;
  constexpr explicit TimerId(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_{0};   // 0 = null handle; monotone, unique per event
  std::uint32_t slot_{0};  // arena slot the event occupies (O(1) cancel)
};

/// Coarse component tags for CPU and allocation attribution.  Every
/// scheduled event carries the tag that was current when it was scheduled,
/// so work a subsystem sets in motion (timers, message deliveries) is
/// attributed to that subsystem without per-call-site bookkeeping.
/// ComponentScope switches the current tag; the kernel's observers (e.g.
/// stats::Profiler) see the enter/leave transitions.
enum class Component : std::uint8_t {
  kKernel = 0,   // dispatch loop itself / untagged work
  kTransport,    // overlay message physics (delivery closures)
  kMembership,   // joins, leaves, crashes, HELLO failure detection
  kRing,         // t-network ring routing + finger maintenance
  kFlood,        // s-network flooding / random walks
  kBypass,       // bypass-link cache maintenance
  kData,         // store / lookup request handling
  kReplication,  // replica placement, re-replication, anti-entropy
  kChaos,        // fault-schedule engine
  kAudit,        // invariant auditor
  kWorkload,     // experiment driver (phase orchestration)
  kSampler,      // time-series gauge sampling (RSS reads are not free)
  kOther,        // explicitly untyped
  kCount_,       // sentinel
};

inline constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::kCount_);

/// Stable snake_case name for metric keys and collapsed-stack frames.
[[nodiscard]] const char* component_name(Component c);

/// Per-event footprint: which peers the event's handler may touch.  Stamped
/// at schedule time (like the Component tag) and consumed by the verify/
/// explorer's independence relation: two events with non-wildcard, disjoint
/// peer sets commute.  The default is wildcard ("may touch anything"), so
/// unannotated call sites are conservatively ordered against everything --
/// annotations can only *add* commutativity, never unsoundness.
struct Footprint {
  static constexpr std::size_t kMaxPeers = 4;
  std::uint32_t peers[kMaxPeers] = {0, 0, 0, 0};
  std::uint8_t count = 0;
  bool wildcard = true;

  [[nodiscard]] static constexpr Footprint wild() { return Footprint{}; }
  [[nodiscard]] static Footprint on(std::initializer_list<std::uint32_t> ids) {
    Footprint f;
    if (ids.size() > kMaxPeers) return f;  // too wide: stay wildcard
    f.wildcard = false;
    for (std::uint32_t id : ids) f.peers[f.count++] = id;
    return f;
  }
  /// True when the two events are guaranteed to commute: neither is a
  /// wildcard and their peer sets are disjoint.
  [[nodiscard]] friend bool independent(const Footprint& a,
                                        const Footprint& b) {
    if (a.wildcard || b.wildcard) return false;
    for (std::uint8_t i = 0; i < a.count; ++i) {
      for (std::uint8_t j = 0; j < b.count; ++j) {
        if (a.peers[i] == b.peers[j]) return false;
      }
    }
    return true;
  }
};

/// One member of the co-enabled set handed to a TieBreakPolicy: a live event
/// whose fire time falls within the commutation window of the earliest live
/// event.  `seq` is stable across deterministic re-executions with the same
/// choice prefix, so explorers identify branches by it.
struct CoEnabledEvent {
  std::uint64_t seq = 0;
  SimTime when{};
  Component comp = Component::kKernel;
  Footprint fp{};
};

/// Pluggable tie-break: when installed, the kernel consults it on *every*
/// dispatch with the full co-enabled set (even singletons, so stateful
/// policies -- sleep sets -- can observe the whole schedule).  Must return
/// an index < n; out-of-range picks fall back to 0 (FIFO order).
class TieBreakPolicy {
 public:
  virtual ~TieBreakPolicy() = default;
  virtual std::size_t choose(const CoEnabledEvent* events, std::size_t n) = 0;
};

/// Counters the kernel maintains; exposed for tests and microbenchmarks.
struct SimulatorStats {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  /// Cancelled heap entries discarded while looking for the next live event
  /// (lazy cancellation leaves corpses behind; this counts their cleanup).
  std::uint64_t corpses_skipped = 0;
};

/// One kernel-level trace record, delivered to every kTrace observer.
struct TraceEvent {
  enum class Kind { kSchedule, kFire, kCancel };
  Kind kind;
  std::uint64_t seq;  // event sequence number (matches TimerId)
  SimTime when;       // scheduled fire time
};

/// Observer of the kernel, which only reports what happened, so the stats
/// layer can trace and profile without a sim -> stats dependency.  Every
/// method defaults to doing nothing.
class Observer {
 public:
  /// The two groups of callbacks.  kTrace is on_event(); kFrames is
  /// enter(), leave(), resync() and message().
  enum Hooks : unsigned { kTrace = 1u << 0, kFrames = 1u << 1 };

  virtual ~Observer() = default;
  /// The groups this observer takes, read once by add_observer(); the
  /// kernel never calls it for the others.  A tracer that leaves out
  /// kFrames, or a profiler that leaves out kTrace, pays nothing for them.
  [[nodiscard]] virtual unsigned hooks() const { return kTrace | kFrames; }
  /// Every schedule, fire and cancel.
  virtual void on_event(const TraceEvent& /*ev*/) {}
  /// A dispatch frame tagged `c` began / the innermost frame ended.
  virtual void enter(Component /*c*/) {}
  virtual void leave() {}
  /// The host is about to (re)enter a dispatch run after doing unrelated
  /// work (called on add_observer() and, for kFrames observers, at
  /// run()/run_until() entry).  Lets a timing observer re-mark its clock
  /// baseline so host work between dispatch runs is never charged to the
  /// next event.
  virtual void resync() {}
  /// A message of class `cls` (stable `name`) with `bytes` on the wire is
  /// being delivered inside the current frame (see note_message()).
  virtual void message(std::size_t /*cls*/, const char* /*name*/,
                       std::uint64_t /*bytes*/) {}
};

/// The event loop.  Not thread-safe by design: replicas parallelize at the
/// whole-simulator granularity (one Simulator per thread).
class Simulator {
 public:
  /// Inline capacity sized for the transport's delivery-wrapping closure
  /// (the hottest event at scale): transport scalars + trace context + a
  /// nested Delivery (itself max_align-padded) land at 144 bytes; larger
  /// closures still work, they just heap-allocate like std::function
  /// always did.  micro_kernel's zero-alloc benches pin this.
  static constexpr std::size_t kActionCapacity = 160;
  using Action = InlineFunction<void(), kActionCapacity>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when`; clamps to now() if earlier.
  TimerId schedule_at(SimTime when, Action action) {
    return schedule_seq(when, next_seq_++, current_component_,
                        current_footprint_, std::move(action));
  }

  /// An event's place in the FIFO order taken before the event exists: its
  /// sequence number, plus the component tag and footprint current when it
  /// was taken (what schedule_at() would have stamped at that moment).
  struct Reservation {
    std::uint64_t seq = 0;
    Component comp = Component::kKernel;
    Footprint fp{};

    /// The k-th seq of a block taken by reserve_seq(n), k < n.
    [[nodiscard]] Reservation nth(std::uint64_t k) const {
      return Reservation{seq + k, comp, fp};
    }
  };

  /// Takes the next `n` sequence numbers without scheduling anything.  An
  /// event scheduled later under `r.nth(k)` (schedule_reserved) ties
  /// exactly like the k-th of n events scheduled now, so a maybe-needed
  /// event costs nothing until it is needed, and a batch of future events
  /// can wait outside the queue until the one before it fires.  A
  /// reservation that is never used leaves a gap in the seqs.
  [[nodiscard]] Reservation reserve_seq(std::uint64_t n = 1) {
    const Reservation r{next_seq_, current_component_, current_footprint_};
    next_seq_ += n;
    return r;
  }

  /// Schedules `action` at `when` under `r`: the (when, seq) order, tag and
  /// footprint are those of an event scheduled when `r` was taken.  Clamps
  /// to now() like schedule_at().
  TimerId schedule_reserved(SimTime when, const Reservation& r,
                            Action action) {
    return schedule_seq(when, r.seq, r.comp, r.fp, std::move(action));
  }

  /// Schedules `action` `delay` after now.
  TimerId schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Cancels a pending event.  Returns false when the handle is null,
  /// already fired, or already cancelled.
  bool cancel(TimerId id);

  /// True when no live events remain.
  [[nodiscard]] bool idle() const { return live_events_ == 0; }

  /// Number of live (not yet fired, not cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }

  /// Periodic housekeeping devices (gauge samplers, invariant auditors)
  /// count their armed tick as a *daemon* event: daemons re-arm only while
  /// pending_work() > 0, so two of them cannot keep each other -- and the
  /// run() loop -- alive after real work drains.  A device calls
  /// note_daemon_armed() when scheduling its tick and note_daemon_disarmed()
  /// when the tick fires (or is cancelled).
  void note_daemon_armed() { ++daemon_events_; }
  void note_daemon_disarmed() { --daemon_events_; }

  /// Live events that are not armed daemon ticks: the work that justifies
  /// keeping periodic housekeeping running.
  [[nodiscard]] std::size_t pending_work() const {
    return live_events_ - daemon_events_;
  }

  /// Runs a single event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs events with time <= deadline, then sets now() = deadline.  After
  /// a stop() the run ends early and now() stays at the stopping event.
  void run_until(SimTime deadline);

  /// Ends the current run() or run_until() once the event in progress
  /// returns.  Pending events stay queued; the next run starts afresh.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Registers `o` (not owned; must outlive its registration) for the
  /// hook groups it names, and resyncs it.  With no observers every
  /// schedule, cancel and dispatch costs one predicted branch; see
  /// BM_EventQueueScheduleRun in micro_kernel.
  void add_observer(Observer* o) {
    const unsigned hooks = o->hooks();
    if ((hooks & Observer::kTrace) != 0) trace_observers_.push_back(o);
    if ((hooks & Observer::kFrames) != 0) frame_observers_.push_back(o);
    o->resync();
  }
  void remove_observer(Observer* o) {
    std::erase(trace_observers_, o);
    std::erase(frame_observers_, o);
  }

  /// Called by the transport on every delivery; see Observer::message.
  void note_message(std::size_t cls, const char* name, std::uint64_t bytes) {
    for (Observer* o : frame_observers_) o->message(cls, name, bytes);
  }

  /// The tag of the running code: the dispatched event's, or the innermost
  /// open ComponentScope's.
  [[nodiscard]] Component current_component() const {
    return current_component_;
  }

  /// Switches the current tag and opens an observer frame; returns the
  /// previous tag for end_component().  Use ComponentScope instead of
  /// calling these directly.
  Component begin_component(Component c) {
    const Component prev = current_component_;
    current_component_ = c;
    for (Observer* o : frame_observers_) o->enter(c);
    return prev;
  }
  void end_component(Component prev) {
    current_component_ = prev;
    for (Observer* o : frame_observers_) o->leave();
  }

  /// Switches the footprint stamped on events scheduled right now (mirrors
  /// the component tag); use FootprintScope.
  Footprint begin_footprint(const Footprint& f) {
    const Footprint prev = current_footprint_;
    current_footprint_ = f;
    return prev;
  }
  void end_footprint(const Footprint& prev) { current_footprint_ = prev; }

  /// Installs (or, with nullptr, removes) the tie-break policy and sets the
  /// commutation window: live events whose fire times fall within `window`
  /// of the earliest live event form the co-enabled set the policy chooses
  /// from.  window == 0 (the default) means exact timestamp ties only.
  /// With a nonzero window an event can fire "early"; now() stays monotone
  /// (it never moves backward), so a reordered event observes the latest
  /// time of any event fired before it.  When unset the dispatch path is
  /// unchanged (one predicted branch per event).
  void set_tie_break_policy(TieBreakPolicy* policy, Duration window = {}) {
    policy_ = policy;
    window_ = window;
  }

  /// Fire time of the next live event (prunes lazy-cancel corpses), or
  /// never() when the queue is empty.  Lets explorer drivers run a bounded
  /// horizon with an abort check between events.
  [[nodiscard]] SimTime next_event_time();

  /// Arena occupancy, for the profiler's gauges: total slots ever grown to
  /// (the high-water mark of concurrently live events), currently live
  /// slots, and raw heap entries (live events + lazy-cancel corpses).
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t arena_live_slots() const {
    return slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t queue_depth() const { return heap_.size(); }

 private:
  struct HeapItem {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// One arena slot.  seq == 0 marks a free slot; a heap corpse is an item
  /// whose (slot, seq) no longer matches the slot's current occupant.
  struct Slot {
    SimTime when{};  // kept so cancel() can report the fire time in traces
    std::uint64_t seq = 0;
    Component comp = Component::kKernel;  // tag current at schedule time
    Footprint fp{};                       // footprint current at schedule time
    Action action;
  };
  [[nodiscard]] static bool before(const HeapItem& a, const HeapItem& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// The one scheduling path; takes the action by reference so that
  /// schedule_at() costs no extra move of the closure.
  TimerId schedule_seq(SimTime when, std::uint64_t seq, Component comp,
                       const Footprint& fp, Action&& action);

  /// 4-ary heap operations on heap_, ordered by before().
  void heap_push(const HeapItem& item);
  void heap_pop();

  /// Runs `grow`, an append that reallocates one of the kernel's own
  /// vectors, inside a kKernel frame.  The growth belongs to the kernel,
  /// not to whichever component is scheduling (an event's or a host
  /// ComponentScope's), so observers must not charge it to that frame.
  /// With no tag set (host code outside any scope, or an untagged event)
  /// the kernel's frame is the current one already, and no frame opens.
  template <typename Grow>
  void kernel_growth(Grow&& grow) {
    if (current_component_ == Component::kKernel) {
      grow();
      return;
    }
    const Component prev = begin_component(Component::kKernel);
    grow();
    end_component(prev);
  }

  [[nodiscard]] bool slot_live(const HeapItem& item) const {
    return slots_[item.slot].seq == item.seq;
  }
  void free_slot(std::uint32_t slot);
  /// Asks the cache for every line of `slot`.  pop_live() calls it for the
  /// next top, so that event's liveness check and action move hit cache
  /// while the current event runs.
  void prefetch_slot(std::uint32_t slot) const {
    const auto* p = reinterpret_cast<const char*>(&slots_[slot]);
    for (std::size_t off = 0; off < sizeof(Slot); off += 64) {
      __builtin_prefetch(p + off);
    }
    __builtin_prefetch(p + sizeof(Slot) - 1);
  }
  void notify(const TraceEvent& ev) {
    for (Observer* o : trace_observers_) o->on_event(ev);
  }

  /// Discards cancelled corpses from the heap top (counting them in
  /// stats_.corpses_skipped) and returns the next live item, or nullptr when
  /// nothing live remains.  The returned pointer is invalidated by any heap
  /// mutation.
  const HeapItem* peek_live();

  /// Pops heap items until one whose slot is still live surfaces.
  /// Returns false when nothing live remains.
  bool pop_live(HeapItem& out, Action& action, Component& comp);

  /// Policy-mode dispatch: gathers the co-enabled set, lets the installed
  /// TieBreakPolicy pick, fires the pick, and pushes the rest back.
  bool step_choice();

  /// Fires one popped event: advances now() monotonically, runs the action
  /// under its component tag, and brackets it with an observer frame.
  void fire(const HeapItem& item, Action& action, Component comp);

  SimTime now_{};
  bool stop_requested_ = false;
  std::uint64_t next_seq_ = 1;
  std::size_t daemon_events_ = 0;
  std::size_t live_events_ = 0;
  std::vector<HeapItem> heap_;            // 4-ary min-heap (heap_push/pop)
  std::vector<Slot> slots_;               // arena of live events
  // Recycled slot indices; its capacity is kept at the arena's, so freeing
  // a slot (between events, outside any frame) never allocates.
  std::vector<std::uint32_t> free_slots_;
  SimulatorStats stats_;
  // Not owned; an observer sits in each list whose hooks it takes.
  std::vector<Observer*> trace_observers_;
  std::vector<Observer*> frame_observers_;
  /// Stamped on events scheduled right now: the dispatching event's tag
  /// during dispatch, or the innermost ComponentScope's / FootprintScope's.
  Component current_component_ = Component::kKernel;
  Footprint current_footprint_{};  // wildcard by default
  TieBreakPolicy* policy_ = nullptr;  // not owned; nullptr = FIFO dispatch
  Duration window_{};                 // co-enabled commutation window
  std::vector<HeapItem> staged_;      // step_choice scratch (reused)
  std::vector<CoEnabledEvent> cands_;
};

/// RAII component-tag switch: statements inside the scope -- and every event
/// they schedule -- are attributed to `c`.  Nesting restores the previous
/// tag on exit; observers see a matching enter/leave pair.  A scope naming
/// the component that is current already (a flood hop's handler scoping
/// kFlood inside its kFlood event) opens no frame: it would attribute
/// nothing new and only cost every observer an enter and a leave.
class ComponentScope {
 public:
  ComponentScope(Simulator& sim, Component c)
      : sim_(sim),
        open_(sim.current_component() != c),
        prev_(open_ ? sim.begin_component(c) : c) {}
  ~ComponentScope() {
    if (open_) sim_.end_component(prev_);
  }
  ComponentScope(const ComponentScope&) = delete;
  ComponentScope& operator=(const ComponentScope&) = delete;

 private:
  Simulator& sim_;
  bool open_;
  Component prev_;
};

/// RAII footprint switch: events scheduled inside the scope are stamped as
/// touching exactly `f`'s peers.  Nesting restores the previous footprint.
class FootprintScope {
 public:
  FootprintScope(Simulator& sim, const Footprint& f)
      : sim_(sim), prev_(sim.begin_footprint(f)) {}
  ~FootprintScope() { sim_.end_footprint(prev_); }
  FootprintScope(const FootprintScope&) = delete;
  FootprintScope& operator=(const FootprintScope&) = delete;

 private:
  Simulator& sim_;
  Footprint prev_;
};

}  // namespace hp2p::sim
