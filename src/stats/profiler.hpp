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
// Cost model: event counts, allocation counts, and message counts and
// bytes are EXACT (allocation-counter snapshots are inline relaxed loads,
// taken at every nested transition and every frame close).  CPU time is
// measured exactly for the first kExactTransitions charge points -- which
// covers unit tests and warm-up outright -- and stride-sampled after that:
// a cheap deterministic LCG picks every ~47th charge point to read the
// cycle counter (rdtsc / cntvct_el0), and the whole span since the previous
// read is charged to the frame on top at the sample.  Spans therefore smear
// across frames, but every sampled nanosecond lands on some frame, so
// dispatch_ns_total stays complete and the attributed fraction stays
// unbiased.  The pseudo-random stride breaks phase-locking with regular
// event patterns; being seeded with a constant, the sample points are
// identical across runs.  Ticks convert to nanoseconds only at export,
// against a steady_clock anchor pair.  The resync() hook re-marks the
// baselines when the kernel re-enters a dispatch run, so host work between
// runs is never charged.  All wall-clock reads live in this file pair; the
// determinism lint allowlist is audited to exactly these files, and nothing
// the profiler measures ever feeds back into simulation behavior.
//
// What the enabled path costs: 3-4% more process CPU time at
// bench_scale's 20k rung (Scale.ProfilerOverheadStaysUnderFivePercent
// asserts <= 5%).  The profiler takes only the kernel's frame hooks, not
// its per-schedule/fire/cancel trace.  A frame touches the object's first
// cache line (depth, frame stack, allocation and clock marks) and its own
// 64-byte Accum (counters and child links together); a top-level frame
// finds its Accum at a fixed index, a nested one by one child-link load.
// Between events the simulation evicts these lines, so the hot state is
// packed into as few of them as possible.  A clock read took ~23 ns on a
// 4-vCPU Xeon VM, hence the sparse samples.
//
// Steady state is allocation-free: the frame stack and the accumulator
// table live in the object, and the path table is reserved at
// construction (asserted by micro_kernel's
// BM_EventQueueProfiledSteadyStateZeroAlloc).  Not thread-safe: one
// Profiler per Simulator, like the kernel itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "stats/json.hpp"

namespace hp2p::stats {

class alignas(64) Profiler final : public sim::Observer {
 public:
  /// Frames deeper than this fold into their ancestor (counted in
  /// truncated_frames()).  4 bits of path per level -> 16 levels in the
  /// 64-bit packed path.
  static constexpr std::size_t kMaxDepth = 16;
  /// Distinct component paths tracked before folding into the overflow
  /// bucket.  Real runs produce a few dozen paths (17 at the 20k rung).
  static constexpr std::size_t kMaxPaths = 256;
  /// Message classes tracked (proto has 4; leave headroom).
  static constexpr std::size_t kMaxMessageClasses = 8;
  /// Charge points (nested enters and all leaves) timed exactly before
  /// stride sampling kicks in.
  static constexpr std::uint16_t kExactTransitions = 4096;

  Profiler();

  // -- sim::Observer ---------------------------------------------------------
  /// Frames only: the kernel's per-schedule/fire/cancel trace is not used.
  [[nodiscard]] unsigned hooks() const override { return kFrames; }
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
  /// Frame enters dropped past kMaxDepth plus frames folded into the
  /// overflow bucket once kMaxPaths paths exist.
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
  /// Accum indices fit a byte (kMaxPaths <= 256).
  using AccumIndex = std::uint8_t;
  static_assert(kMaxPaths <= 256);
  static constexpr AccumIndex kOverflowAccum = 1;
  /// Accum 0 is the root.  Depth-1 accums sit at kFirstTopAccum +
  /// component, so that a top-level frame finds its accum without reading
  /// memory.
  static constexpr AccumIndex kFirstTopAccum = 2;

  /// One component path's counters plus its child links, in one cache
  /// line: a frame touches its own line and, when nested, its parent's.
  struct alignas(64) Accum {
    std::uint64_t self_ticks = 0;
    std::uint64_t enters = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    /// Accum of this path extended by each component, or 0 while not yet
    /// resolved (the root is nobody's child).  The links make the table a
    /// trie over component paths: entering a nested frame is one load.
    AccumIndex child[sim::kNumComponents] = {};
  };
  static_assert(sizeof(Accum) == 64);
  /// What an accum stands for; read when a path is first resolved and at
  /// export.
  struct PathInfo {
    std::uint64_t path;  // packed component nibbles, root-first
    sim::Component comp;
    std::uint8_t depth;
  };
  [[nodiscard]] static std::uint64_t now_ticks();
  [[nodiscard]] static std::uint64_t steady_ns();
  /// Tick -> nanosecond scale from the (anchor, now) steady_clock pair.
  [[nodiscard]] double ns_per_tick() const;
  [[nodiscard]] std::uint64_t ticks_to_ns(std::uint64_t ticks) const;

  /// A charge point (a nested enter or any leave): charges the allocation
  /// deltas since the last mark to the open frame and counts down to the
  /// next clock sample.
  void charge();
  /// Charges allocation deltas since the last mark to the open frame, then
  /// re-marks.  With only the root open the deltas land on the root, which
  /// no export reads: host allocations belong to the host program.
  void charge_allocs();
  /// Reads the clock and charges the span since the last read: at every
  /// charge point while in the exact phase, at LCG-strided points after.
  void sample();
  /// Charges the tick span since the last read to the open frame (and to
  /// the pending message class), then re-marks.
  void charge_ticks(std::uint64_t now);
  /// Slow path of a nested enter(): the accum for `parent`'s path extended
  /// by `c`, created and linked on first use.
  [[nodiscard]] AccumIndex resolve(AccumIndex parent, sim::Component c);
  AccumIndex add_accum(std::uint64_t path, sim::Component comp,
                       std::uint8_t depth);

  // The first cache line (with the vtable pointer) holds all that a
  // frame touches apart from its accum, the allocation counters and, on
  // a message, its class's counts; the class alignment keeps it one line.
  std::uint8_t depth_ = 0;          // open frames above the root
  std::uint8_t pending_depth_ = 0;  // depth that noted the class; 0 = none
  std::uint8_t pending_class_ = 0;
  std::uint8_t sample_countdown_ = 1;  // charge points until the next read
  std::uint16_t depth_overflow_ = 0;   // enters past kMaxDepth awaiting leave
  std::uint16_t exact_left_ = kExactTransitions;  // exact-phase countdown
  std::uint64_t last_allocs_ = 0;
  std::uint64_t last_alloc_bytes_ = 0;
  std::uint64_t last_ticks_ = 0;  // last clock-read timestamp
  std::uint64_t sample_rng_ = 0x9e3779b97f4a7c15ULL;  // stride LCG state
  AccumIndex stack_[kMaxDepth] = {};  // accum per open frame; [0] = root

  /// Two classes per cache line; proto's four take two lines.
  struct alignas(32) ClassCount {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t ticks = 0;  // sampled self time of delivering frames
  };
  ClassCount class_counts_[kMaxMessageClasses];

  Accum accums_[kMaxPaths];  // [0] root, [1] overflow, then depth-1 paths

  // Cold state.
  std::vector<PathInfo> paths_;  // paths_[i] describes accums_[i]
  std::uint64_t truncated_frames_ = 0;
  const char* class_names_[kMaxMessageClasses] = {};
  std::uint64_t anchor_ticks_ = 0;  // calibration pair at construction
  std::uint64_t anchor_ns_ = 0;
  /// Tick scale, frozen by ns_per_tick() at the first export so every
  /// exported value shares one calibration.
  mutable double calibrated_ns_per_tick_ = 0.0;
};

}  // namespace hp2p::stats
