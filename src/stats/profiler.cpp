#include "stats/profiler.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "common/alloc_stats.hpp"

namespace hp2p::stats {

namespace {

/// Packs component `c` into the path nibble for `depth` (4 bits per level,
/// +1 so an empty nibble never aliases component 0).
std::uint64_t path_nibble(sim::Component c, std::size_t depth) {
  return (static_cast<std::uint64_t>(c) + 1) << (4 * depth);
}

const char* clock_name() {
#if defined(__x86_64__) || defined(_M_X64)
  return "tsc";
#elif defined(__aarch64__)
  return "cntvct";
#else
  return "steady";
#endif
}

}  // namespace

std::uint64_t Profiler::now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return steady_ns();
#endif
}

std::uint64_t Profiler::steady_ns() {
  // Observation-only wall-clock read: converted to durations at export time
  // and never fed back into simulation behavior.  The determinism lint's
  // audited allowlist pins this escape to the profiler sources.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // lint:allow(wallclock)
              .time_since_epoch())
          .count());
}

Profiler::Profiler() {
  paths_.reserve(kMaxPaths);
  // The root (host program time; never exported), the overflow bucket for
  // paths past kMaxPaths (exported as the depth-1 kOther path), then every
  // depth-1 path at kFirstTopAccum + component.  Prefilled accums start at
  // zero enters and ticks, so unused ones never appear in exports.
  const std::uint64_t root_path = path_nibble(sim::Component::kKernel, 0);
  add_accum(root_path, sim::Component::kKernel, 0);
  add_accum(root_path | path_nibble(sim::Component::kOther, 1),
            sim::Component::kOther, 1);
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto comp = static_cast<sim::Component>(c);
    add_accum(root_path | path_nibble(comp, 1), comp, 1);
  }
  anchor_ticks_ = now_ticks();
  anchor_ns_ = steady_ns();
  last_ticks_ = anchor_ticks_;
  last_allocs_ = alloc_stats::allocation_count();
  last_alloc_bytes_ = alloc_stats::allocated_bytes();
}

double Profiler::ns_per_tick() const {
  // Calibrate once, at first export, against the anchor pair taken at
  // construction (the longest available baseline).  Caching keeps every
  // exported value -- dispatch_ns_total(), attributed_ns(), to_json(),
  // write_collapsed() -- on the same scale; per-call recalibration would
  // let attributed_ns() drift past dispatch_ns_total() by a few ns.
  if (calibrated_ns_per_tick_ == 0.0) {
    const std::uint64_t t = now_ticks();
    const std::uint64_t n = steady_ns();
    calibrated_ns_per_tick_ =
        (t <= anchor_ticks_ || n <= anchor_ns_)
            ? 1.0
            : static_cast<double>(n - anchor_ns_) /
                  static_cast<double>(t - anchor_ticks_);
  }
  return calibrated_ns_per_tick_;
}

std::uint64_t Profiler::ticks_to_ns(std::uint64_t ticks) const {
  return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                    ns_per_tick());
}

void Profiler::charge_ticks(std::uint64_t now) {
  if (depth_ > 0) {  // root self time belongs to the host program
    const std::uint64_t span = now - last_ticks_;
    accums_[stack_[depth_]].self_ticks += span;
    if (pending_depth_ == depth_) class_counts_[pending_class_].ticks += span;
  }
  last_ticks_ = now;
}

void Profiler::sample() {
  if (exact_left_ > 0) {
    --exact_left_;
    sample_countdown_ = 1;
  } else {
    // Deterministic LCG stride in [16, 79] (mean ~47.5): pseudo-random so
    // samples cannot phase-lock with a regular enter/leave pattern, seeded
    // with a constant so sample points repeat exactly across runs.
    sample_rng_ =
        sample_rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    sample_countdown_ = static_cast<std::uint8_t>(16 + (sample_rng_ >> 58));
  }
  charge_ticks(now_ticks());
}

inline void Profiler::charge_allocs() {
  const std::uint64_t allocs = alloc_stats::allocation_count();
  const std::uint64_t bytes = alloc_stats::allocated_bytes();
  Accum& a = accums_[stack_[depth_]];
  a.allocs += allocs - last_allocs_;
  a.alloc_bytes += bytes - last_alloc_bytes_;
  last_allocs_ = allocs;
  last_alloc_bytes_ = bytes;
}

inline void Profiler::charge() {
  charge_allocs();
  if (--sample_countdown_ == 0) sample();
}

Profiler::AccumIndex Profiler::add_accum(std::uint64_t path,
                                         sim::Component comp,
                                         std::uint8_t depth) {
  const auto index = static_cast<AccumIndex>(paths_.size());
  paths_.push_back(PathInfo{path, comp, depth});
  return index;
}

Profiler::AccumIndex Profiler::resolve(AccumIndex parent, sim::Component c) {
  // Frames inside a folded frame fold with it: the bucket has no children.
  if (parent == kOverflowAccum || paths_.size() >= kMaxPaths) {
    ++truncated_frames_;
    return kOverflowAccum;
  }
  const PathInfo& info = paths_[parent];
  const auto depth = static_cast<std::uint8_t>(info.depth + 1);
  const AccumIndex child =
      add_accum(info.path | path_nibble(c, depth), c, depth);
  accums_[parent].child[static_cast<std::size_t>(c)] = child;
  return child;
}

void Profiler::enter(sim::Component c) {
  AccumIndex accum;
  if (depth_ == 0) {
    // A top-level frame (every event dispatch) charges nothing: the
    // kernel's pop/dispatch gap stays in the open span and lands on
    // whichever frame the next sample charges.
    accum = static_cast<AccumIndex>(kFirstTopAccum + static_cast<int>(c));
  } else {
    // A nested frame first closes the enclosing frame's share.
    charge();
    if (std::size_t{depth_} + 1 >= kMaxDepth) {
      ++depth_overflow_;  // fold into the ancestor; leave() pairs with this
      ++truncated_frames_;
      return;
    }
    const AccumIndex parent = stack_[depth_];
    accum = accums_[parent].child[static_cast<std::size_t>(c)];
    if (accum == 0) accum = resolve(parent, c);
  }
  ++accums_[accum].enters;
  stack_[++depth_] = accum;
}

void Profiler::leave() {
  if (depth_overflow_ > 0) {
    --depth_overflow_;  // folded frame: its time stays with the ancestor
    return;
  }
  if (depth_ == 0) return;  // unbalanced leave; ignore
  charge();
  if (pending_depth_ == depth_) pending_depth_ = 0;  // its frame is closing
  --depth_;
}

void Profiler::resync() {
  // The kernel is (re)entering a dispatch run after host work (underlay
  // construction, phase bookkeeping between run_until calls).  Re-mark the
  // tick and allocation baselines so that host work is never charged to the
  // next sampled frame; with only the root open nothing is charged.
  charge_allocs();
  charge_ticks(now_ticks());
}

void Profiler::message(std::size_t cls, const char* name,
                       std::uint64_t bytes) {
  if (cls >= kMaxMessageClasses) return;
  ClassCount& count = class_counts_[cls];
  if (count.messages++ == 0) class_names_[cls] = name;
  count.bytes += bytes;
  // The open frame's sampled time is charged to the class until it closes;
  // at the root (depth 0) nothing is pending.
  pending_class_ = static_cast<std::uint8_t>(cls);
  pending_depth_ = depth_;
}

std::uint64_t Profiler::dispatch_ns_total() const {
  // Every charged span lands on exactly one non-root accum.
  std::uint64_t ticks = 0;
  for (std::size_t i = 1; i < paths_.size(); ++i) {
    ticks += accums_[i].self_ticks;
  }
  return ticks_to_ns(ticks);
}

std::uint64_t Profiler::attributed_ns() const {
  std::uint64_t ticks = 0;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const PathInfo& info = paths_[i];
    if (info.depth == 0) continue;  // root: host program time
    if (info.comp == sim::Component::kKernel ||
        info.comp == sim::Component::kOther)
      continue;
    ticks += accums_[i].self_ticks;
  }
  return ticks_to_ns(ticks);
}

Profiler::ComponentTotal Profiler::component_total(sim::Component c) const {
  ComponentTotal total;
  const double scale = ns_per_tick();
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].depth == 0 || paths_[i].comp != c) continue;
    const Accum& a = accums_[i];
    total.enters += a.enters;
    total.cpu_ns += static_cast<std::uint64_t>(
        static_cast<double>(a.self_ticks) * scale);
    total.allocs += a.allocs;
    total.alloc_bytes += a.alloc_bytes;
  }
  return total;
}

JsonValue Profiler::to_json() const {
  const double scale = ns_per_tick();
  const std::uint64_t dispatch_ns = dispatch_ns_total();
  JsonValue components = JsonValue::object();
  std::uint64_t attributed_ticks = 0;
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto comp = static_cast<sim::Component>(c);
    ComponentTotal total;
    std::uint64_t self_ticks = 0;
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      if (paths_[i].depth == 0 || paths_[i].comp != comp) continue;
      const Accum& a = accums_[i];
      total.enters += a.enters;
      total.allocs += a.allocs;
      total.alloc_bytes += a.alloc_bytes;
      self_ticks += a.self_ticks;
    }
    if (total.enters == 0 && self_ticks == 0) continue;
    if (comp != sim::Component::kKernel && comp != sim::Component::kOther) {
      attributed_ticks += self_ticks;
    }
    JsonValue entry = JsonValue::object();
    entry.set("events", total.enters);
    entry.set("cpu_ns", static_cast<std::uint64_t>(
                            static_cast<double>(self_ticks) * scale));
    entry.set("allocs", total.allocs);
    entry.set("alloc_bytes", total.alloc_bytes);
    components.set(sim::component_name(comp), std::move(entry));
  }
  const std::uint64_t attributed_ns_v = static_cast<std::uint64_t>(
      static_cast<double>(attributed_ticks) * scale);

  JsonValue message_types = JsonValue::object();
  for (std::size_t cls = 0; cls < kMaxMessageClasses; ++cls) {
    if (class_names_[cls] == nullptr) continue;
    JsonValue entry = JsonValue::object();
    entry.set("messages", class_counts_[cls].messages);
    entry.set("bytes", class_counts_[cls].bytes);
    entry.set("cpu_ns", static_cast<std::uint64_t>(
                            static_cast<double>(class_counts_[cls].ticks) * scale));
    message_types.set(class_names_[cls], std::move(entry));
  }

  JsonValue profile = JsonValue::object();
  profile.set("enabled", true);
  profile.set("clock", clock_name());
  profile.set("ns_per_tick", scale);
  profile.set("dispatch_ns_total", dispatch_ns);
  profile.set("attributed_ns", attributed_ns_v);
  profile.set("attributed_fraction",
              dispatch_ns > 0 ? static_cast<double>(attributed_ns_v) /
                                    static_cast<double>(dispatch_ns)
                              : 0.0);
  profile.set("truncated_frames", truncated_frames_);
  profile.set("components", std::move(components));
  profile.set("message_types", std::move(message_types));
  return profile;
}

bool Profiler::write_collapsed(const std::string& path) const {
  const double scale = ns_per_tick();
  // Keyed by the frame names, so the overflow bucket merges with the
  // depth-1 kOther path it is exported as.
  std::map<std::string, std::uint64_t> lines;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const PathInfo& info = paths_[i];
    if (info.depth == 0) continue;  // root frame: host program, not dispatch
    const auto self_ns = static_cast<std::uint64_t>(
        static_cast<double>(accums_[i].self_ticks) * scale);
    if (self_ns == 0) continue;
    std::string stack;
    for (std::size_t d = 0; d <= info.depth; ++d) {
      const std::uint64_t nibble = (info.path >> (4 * d)) & 0xF;
      if (nibble == 0) break;
      if (!stack.empty()) stack += ';';
      stack += sim::component_name(static_cast<sim::Component>(nibble - 1));
    }
    lines[stack] += self_ns;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto& [stack, self_ns] : lines) {
    out << stack << ' ' << self_ns << '\n';
  }
  return static_cast<bool>(out.flush());
}

}  // namespace hp2p::stats
