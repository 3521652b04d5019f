#include "stats/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_stats.hpp"

namespace hp2p::stats {

namespace {

/// splitmix64: cheap, well-mixed hash for the packed component paths.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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
  stack_.reserve(kMaxDepth + 2);
  accums_.reserve(kMaxPaths + 2);
  index_.assign(kMaxPaths * 2, 0);  // power of two, load factor <= 0.5
  // Accum 0: the permanent root (host program time; never accrued).
  // Accum 1: the overflow bucket for paths past kMaxPaths -- created via
  // find_or_insert so it is indexed like any other accum (it doubles as the
  // legitimate depth-1 kOther path).
  const std::uint64_t root_path = path_nibble(sim::Component::kKernel, 0);
  accums_.push_back(Accum{root_path, 0, 0, 0, 0, sim::Component::kKernel, 0});
  (void)find_or_insert(root_path | path_nibble(sim::Component::kOther, 1),
                       sim::Component::kOther, 1);
  // Prefill every depth-1 path so the top-level enter() fast path is a
  // table load instead of a hash probe.  Prefilled accums start at zero
  // enters/ticks, so unused ones never appear in exports.
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto comp = static_cast<sim::Component>(c);
    depth1_accum_[c] =
        find_or_insert(root_path | path_nibble(comp, 1), comp, 1);
  }
  anchor_ticks_ = now_ticks();
  anchor_ns_ = steady_ns();
  last_ticks_ = anchor_ticks_;
  last_allocs_ = alloc_stats::allocation_count();
  last_alloc_bytes_ = alloc_stats::allocated_bytes();
  stack_.push_back(Frame{root_path, 0, sim::Component::kKernel});
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

void Profiler::charge_allocs() {
  const std::uint64_t allocs = alloc_stats::allocation_count();
  const std::uint64_t bytes = alloc_stats::allocated_bytes();
  if (stack_.size() > 1) {  // root deltas belong to the host program
    Accum& a = accums_[stack_.back().accum];
    a.allocs += allocs - last_allocs_;
    a.alloc_bytes += bytes - last_alloc_bytes_;
  }
  last_allocs_ = allocs;
  last_alloc_bytes_ = bytes;
}

void Profiler::charge_ticks(std::uint64_t now) {
  if (stack_.size() > 1) {  // root self time belongs to the host program
    const std::uint64_t span = now - last_ticks_;
    accums_[stack_.back().accum].self_ticks += span;
    dispatch_ticks_total_ += span;
    if (pending_class_ >= 0 && stack_.size() == pending_depth_) {
      classes_[pending_class_].cpu_ticks += span;
    }
  }
  last_ticks_ = now;
}

void Profiler::maybe_charge_ticks() {
  if (exact_left_ > 0) {
    --exact_left_;
    charge_ticks(now_ticks());
    return;
  }
  if (--sample_countdown_ == 0) {
    // Deterministic LCG stride in [4, 19] (mean ~11.5): pseudo-random so
    // samples cannot phase-lock with a regular enter/leave pattern, seeded
    // with a constant so sample points repeat exactly across runs.
    sample_rng_ =
        sample_rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    sample_countdown_ = 4 + static_cast<std::uint32_t>(sample_rng_ >> 60);
    charge_ticks(now_ticks());
  }
}

std::uint32_t Profiler::find_or_insert(std::uint64_t path, sim::Component comp,
                                       std::uint8_t depth) {
  const std::uint64_t mask = index_.size() - 1;
  std::uint64_t i = mix(path) & mask;
  while (true) {
    const std::uint32_t entry = index_[i];
    if (entry == 0) break;
    if (accums_[entry - 1].path == path) return entry - 1;
    i = (i + 1) & mask;
  }
  if (accums_.size() >= kMaxPaths) {
    ++truncated_frames_;
    return 1;  // overflow bucket
  }
  const auto accum = static_cast<std::uint32_t>(accums_.size());
  accums_.push_back(Accum{path, 0, 0, 0, 0, comp, depth});
  index_[i] = accum + 1;
  return accum;
}

void Profiler::enter(sim::Component c) {
  // Fast path for top-level frames (every event dispatch): no clock or
  // counter reads at all -- the kernel's pop/dispatch gap stays in the
  // open span and lands on whichever frame the next sample charges -- and
  // the accum comes from the prefilled depth-1 table.  One predicted
  // branch, one table load, one push.
  if (stack_.size() == 1) {
    const std::uint32_t accum = depth1_accum_[static_cast<std::size_t>(c)];
    ++accums_[accum].enters;
    stack_.push_back(Frame{accums_[accum].path, accum, c});
    return;
  }
  charge_allocs();      // the delta so far belongs to the enclosing frame
  maybe_charge_ticks();
  const std::size_t depth = stack_.size();  // the new frame's depth
  if (depth >= kMaxDepth) {
    ++depth_overflow_;  // fold into the ancestor; leave() pairs with this
    ++truncated_frames_;
    return;
  }
  const std::uint64_t path = stack_.back().path | path_nibble(c, depth);
  const std::uint32_t accum =
      find_or_insert(path, c, static_cast<std::uint8_t>(depth));
  ++accums_[accum].enters;
  stack_.push_back(Frame{path, accum, c});
}

void Profiler::leave() {
  if (depth_overflow_ > 0) {
    --depth_overflow_;  // folded frame: its time stays with the ancestor
    return;
  }
  if (stack_.size() <= 1) return;  // unbalanced leave; ignore
  charge_allocs();
  maybe_charge_ticks();
  if (pending_class_ >= 0 && stack_.size() == pending_depth_) {
    pending_class_ = -1;  // the delivering frame is closing
  }
  stack_.pop_back();
}

void Profiler::resync() {
  // The kernel is (re)entering a dispatch run after host work (underlay
  // construction, phase bookkeeping between run_until calls).  Re-mark the
  // tick and allocation baselines so that host work is never charged to the
  // next sampled frame; with only the root on the stack the charges are
  // mark-only.
  charge_allocs();
  charge_ticks(now_ticks());
}

void Profiler::message(std::size_t cls, const char* name,
                       std::uint64_t bytes) {
  if (cls >= kMaxMessageClasses) return;
  ClassStat& stat = classes_[cls];
  stat.name = name;
  ++stat.messages;
  stat.bytes += bytes;
  if (stack_.size() > 1) {  // charge the enclosing frame's time at its close
    pending_class_ = static_cast<int>(cls);
    pending_depth_ = stack_.size();
  }
}

std::uint64_t Profiler::dispatch_ns_total() const {
  return ticks_to_ns(dispatch_ticks_total_);
}

std::uint64_t Profiler::attributed_ns() const {
  std::uint64_t ticks = 0;
  for (const Accum& a : accums_) {
    if (a.depth == 0) continue;  // root: host program time
    if (a.comp == sim::Component::kKernel || a.comp == sim::Component::kOther)
      continue;
    ticks += a.self_ticks;
  }
  return ticks_to_ns(ticks);
}

Profiler::ComponentTotal Profiler::component_total(sim::Component c) const {
  ComponentTotal total;
  const double scale = ns_per_tick();
  for (const Accum& a : accums_) {
    if (a.depth == 0 || a.comp != c) continue;
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
  const std::uint64_t dispatch_ns = static_cast<std::uint64_t>(
      static_cast<double>(dispatch_ticks_total_) * scale);
  JsonValue components = JsonValue::object();
  std::uint64_t attributed_ticks = 0;
  for (std::size_t c = 0; c < sim::kNumComponents; ++c) {
    const auto comp = static_cast<sim::Component>(c);
    ComponentTotal total;
    std::uint64_t self_ticks = 0;
    for (const Accum& a : accums_) {
      if (a.depth == 0 || a.comp != comp) continue;
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
  for (const ClassStat& stat : classes_) {
    if (stat.name == nullptr) continue;
    JsonValue entry = JsonValue::object();
    entry.set("messages", stat.messages);
    entry.set("bytes", stat.bytes);
    entry.set("cpu_ns", static_cast<std::uint64_t>(
                            static_cast<double>(stat.cpu_ticks) * scale));
    message_types.set(stat.name, std::move(entry));
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
  std::vector<std::string> lines;
  lines.reserve(accums_.size());
  for (const Accum& a : accums_) {
    if (a.depth == 0) continue;  // root frame: host program, not dispatch
    const auto self_ns = static_cast<std::uint64_t>(
        static_cast<double>(a.self_ticks) * scale);
    if (self_ns == 0) continue;
    std::string line;
    for (std::size_t d = 0; d <= a.depth; ++d) {
      const std::uint64_t nibble = (a.path >> (4 * d)) & 0xF;
      if (nibble == 0) break;
      if (!line.empty()) line += ';';
      line += sim::component_name(static_cast<sim::Component>(nibble - 1));
    }
    line += ' ';
    line += std::to_string(self_ns);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const std::string& line : lines) out << line << '\n';
  return static_cast<bool>(out.flush());
}

}  // namespace hp2p::stats
