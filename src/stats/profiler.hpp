// Continuous dispatch profiler.
//
// Implements sim::Observer: the kernel reports "a frame tagged with
// component C began / the innermost frame ended" around every event dispatch
// and every nested ComponentScope, and the profiler turns those transitions
// into a call-stack-shaped attribution of real CPU time, event counts, heap
// allocations, and allocated bytes per component path -- plus per-message-
// class time and bytes when the transport reports deliveries through the
// kernel (Simulator::note_message).
//
// Cost model: event counts, allocation counts, and message bytes are EXACT
// (allocation-counter snapshots are inline relaxed loads, taken at every
// nested transition and every frame close).  CPU time is measured exactly
// for the first kExactTransitions observer transitions -- which covers unit
// tests and warm-up outright -- and stride-sampled after that: a cheap
// deterministic LCG picks every ~12th charge point to read the cycle
// counter (rdtsc / cntvct_el0), and the whole span since the previous read
// is charged to the frame on top at the sample.  Spans therefore smear
// across a few frames, but every sampled nanosecond lands on some frame,
// so dispatch_ns_total stays complete and the attributed fraction stays
// unbiased, while the per-event steady-state cost drops to a handful of
// loads and stores -- that is what keeps the enabled path within the <= 5%
// events/sec budget the scale-labeled test asserts.  The pseudo-random
// stride breaks phase-locking with regular event patterns; being seeded
// with a constant, the sample points are identical across runs.  The
// depth-1 enter() fast path (every event dispatch) does no reads at all:
// it resolves the accum from a precomputed per-component table and pushes.
// Ticks convert to nanoseconds only at export, against a steady_clock
// anchor pair.  The resync() hook re-marks the baselines when the kernel
// re-enters a dispatch run, so host work between runs is never charged.  All wall-clock reads live in this file pair;
// the determinism lint allowlist is audited to exactly these files, and
// nothing the profiler measures ever feeds back into simulation behavior.
//
// Steady state is allocation-free: the frame stack and the open-addressed
// accumulator table are preallocated at construction (asserted by
// micro_kernel's BM_EventQueueProfiledSteadyStateZeroAlloc).  Not
// thread-safe: one Profiler per Simulator, like the kernel itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "stats/json.hpp"

namespace hp2p::stats {

class Profiler final : public sim::Observer {
 public:
  /// Frames deeper than this fold into their ancestor (counted in
  /// truncated_frames()).  4 bits of path per level -> 16 levels in the
  /// 64-bit packed path.
  static constexpr std::size_t kMaxDepth = 16;
  /// Distinct component paths tracked before folding into the overflow
  /// bucket.  Real runs produce a few dozen paths.
  static constexpr std::size_t kMaxPaths = 1024;
  /// Message classes tracked (proto has 4; leave headroom).
  static constexpr std::size_t kMaxMessageClasses = 8;
  /// Observer transitions timed exactly before stride sampling kicks in.
  static constexpr std::uint64_t kExactTransitions = 4096;

  Profiler();

  // -- sim::Observer ---------------------------------------------------------
  void enter(sim::Component c) override;
  void leave() override;
  void resync() override;
  /// Counts and bytes are exact; the class's cpu_ns is the sampled self
  /// time observed while a frame that delivered it is on top.
  void message(std::size_t cls, const char* name,
               std::uint64_t bytes) override;

  // -- Aggregated results ----------------------------------------------------
  /// Per-component rollup (summed over every path whose innermost frame is
  /// that component).
  struct ComponentTotal {
    std::uint64_t enters = 0;      // frame activations (events + scopes)
    std::uint64_t cpu_ns = 0;      // self time
    std::uint64_t allocs = 0;      // operator-new calls in self scope
    std::uint64_t alloc_bytes = 0; // requested bytes in self scope
  };

  /// Total inclusive time of top-level frames (event dispatches and
  /// top-level scopes): the denominator of the attribution ratio.
  [[nodiscard]] std::uint64_t dispatch_ns_total() const;
  /// Self time attributed to real components (everything except kKernel and
  /// kOther): the numerator of the attribution ratio.
  [[nodiscard]] std::uint64_t attributed_ns() const;
  [[nodiscard]] ComponentTotal component_total(sim::Component c) const;
  /// Frame enters dropped past kMaxDepth plus accumulator-table overflows.
  [[nodiscard]] std::uint64_t truncated_frames() const {
    return truncated_frames_;
  }

  /// The BENCH JSON schema-v4 "profile" section.
  [[nodiscard]] JsonValue to_json() const;

  /// Writes the collapsed-stack file flamegraph.pl / speedscope consume:
  /// one "comp;comp;comp <self_ns>" line per component path.  Returns false
  /// on I/O failure.
  [[nodiscard]] bool write_collapsed(const std::string& path) const;

 private:
  struct Frame {
    std::uint64_t path;   // packed component nibbles, root-first
    std::uint32_t accum;  // index into accums_
    sim::Component comp;
  };
  struct Accum {
    std::uint64_t path = 0;
    std::uint64_t self_ticks = 0;
    std::uint64_t enters = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    sim::Component comp = sim::Component::kKernel;
    std::uint8_t depth = 0;
  };
  struct ClassStat {
    const char* name = nullptr;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t cpu_ticks = 0;
  };

  [[nodiscard]] static std::uint64_t now_ticks();
  [[nodiscard]] static std::uint64_t steady_ns();
  /// Tick -> nanosecond scale from the (anchor, now) steady_clock pair.
  [[nodiscard]] double ns_per_tick() const;
  [[nodiscard]] std::uint64_t ticks_to_ns(std::uint64_t ticks) const;

  /// Charges allocation deltas since the last mark to the current top
  /// frame, then re-marks.  Top-of-stack == root charges nothing: host
  /// allocations between dispatch runs belong to the host program.
  void charge_allocs();
  /// Charges the tick span since the last read to the current top frame
  /// (and to dispatch_ns_total / the pending message class), then re-marks.
  void charge_ticks(std::uint64_t now);
  /// Reads the clock and calls charge_ticks -- at every charge point while
  /// in the exact phase, at LCG-strided points afterwards.
  void maybe_charge_ticks();
  [[nodiscard]] std::uint32_t find_or_insert(std::uint64_t path,
                                             sim::Component comp,
                                             std::uint8_t depth);

  std::vector<Frame> stack_;          // [0] is the permanent root
  std::vector<Accum> accums_;
  std::vector<std::uint32_t> index_;  // open addressing: accum index + 1
  /// Depth-1 accum per component, prefilled at construction: the enter()
  /// fast path for top-level frames skips the hash lookup entirely.
  std::uint32_t depth1_accum_[sim::kNumComponents] = {};
  ClassStat classes_[kMaxMessageClasses];
  std::uint64_t dispatch_ticks_total_ = 0;
  std::uint64_t truncated_frames_ = 0;
  std::uint64_t depth_overflow_ = 0;  // enters past kMaxDepth awaiting leave
  std::uint64_t last_ticks_ = 0;      // last clock-read timestamp
  std::uint64_t last_allocs_ = 0;
  std::uint64_t last_alloc_bytes_ = 0;
  std::uint64_t exact_left_ = kExactTransitions;  // exact-phase countdown
  std::uint32_t sample_countdown_ = 1;  // charge points until next read
  std::uint64_t sample_rng_ = 0x9e3779b97f4a7c15ULL;  // stride LCG state
  int pending_class_ = -1;            // message class noted in current frame
  std::size_t pending_depth_ = 0;
  std::uint64_t anchor_ticks_ = 0;    // calibration pair at construction
  std::uint64_t anchor_ns_ = 0;
  /// Tick scale, frozen by ns_per_tick() at the first export so every
  /// exported value shares one calibration.
  mutable double calibrated_ns_per_tick_ = 0.0;
};

}  // namespace hp2p::stats
