#include "sim/simulator.hpp"

#include <utility>

namespace hp2p::sim {

const char* component_name(Component c) {
  switch (c) {
    case Component::kKernel: return "kernel";
    case Component::kTransport: return "transport";
    case Component::kMembership: return "membership";
    case Component::kRing: return "ring";
    case Component::kFlood: return "flood";
    case Component::kBypass: return "bypass";
    case Component::kData: return "data";
    case Component::kReplication: return "replication";
    case Component::kChaos: return "chaos";
    case Component::kAudit: return "audit";
    case Component::kWorkload: return "workload";
    case Component::kSampler: return "sampler";
    case Component::kOther: return "other";
    case Component::kCount_: break;
  }
  return "invalid";
}

TimerId Simulator::schedule_seq(SimTime when, std::uint64_t seq,
                                Component comp, const Footprint& fp,
                                Action&& action) {
  if (when < now_) when = now_;  // never schedule into the past
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slots_.size() < slots_.capacity()) {
      slots_.emplace_back();
    } else {
      kernel_growth([this] {
        slots_.emplace_back();
        free_slots_.reserve(slots_.capacity());
      });
    }
  }
  Slot& s = slots_[slot];
  s.when = when;
  s.seq = seq;
  s.comp = comp;
  s.fp = fp;
  s.action = std::move(action);
  heap_push(HeapItem{when, seq, slot});
  ++live_events_;
  ++stats_.events_scheduled;
  notify(TraceEvent{TraceEvent::Kind::kSchedule, seq, when});
  return TimerId{seq, slot};
}

void Simulator::heap_push(const HeapItem& item) {
  std::size_t i = heap_.size();
  if (i < heap_.capacity()) {
    heap_.push_back(item);
  } else {
    kernel_growth([&] { heap_.push_back(item); });
  }
  // Sift up: move each parent that comes later down into the hole.
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void Simulator::heap_pop() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former last item down from the root: each step moves the
  // earliest of up to four children up into the hole.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Simulator::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.action.reset();
  free_slots_.push_back(slot);  // within the capacity reserved with slots_
  --live_events_;
}

bool Simulator::cancel(TimerId id) {
  if (!id.valid()) return false;
  if (id.slot_ >= slots_.size() || slots_[id.slot_].seq != id.seq_) {
    return false;  // already fired or already cancelled
  }
  const SimTime when = slots_[id.slot_].when;
  free_slot(id.slot_);
  ++stats_.events_cancelled;
  notify(TraceEvent{TraceEvent::Kind::kCancel, id.seq_, when});
  return true;
}

const Simulator::HeapItem* Simulator::peek_live() {
  while (!heap_.empty() && !slot_live(heap_.front())) {
    heap_pop();  // cancelled; discard the corpse
    ++stats_.corpses_skipped;
  }
  return heap_.empty() ? nullptr : &heap_.front();
}

bool Simulator::pop_live(HeapItem& out, Action& action, Component& comp) {
  while (!heap_.empty()) {
    const HeapItem top = heap_.front();
    heap_pop();
    if (!slot_live(top)) {
      ++stats_.corpses_skipped;  // cancelled; the corpse is discarded
      continue;
    }
    out = top;
    comp = slots_[top.slot].comp;
    action = std::move(slots_[top.slot].action);
    free_slot(top.slot);
    if (!heap_.empty()) prefetch_slot(heap_.front().slot);
    return true;
  }
  return false;
}

void Simulator::fire(const HeapItem& item, Action& action, Component comp) {
  // Monotone clock: under a nonzero commutation window a policy can fire an
  // event "early", so now() only ever moves forward.  In FIFO mode the pop
  // order guarantees item.when >= now_, making this the plain assignment it
  // always was.
  if (item.when > now_) now_ = item.when;
  ++stats_.events_executed;
  notify(TraceEvent{TraceEvent::Kind::kFire, item.seq, item.when});
  // The dispatched action inherits the event's tag, so anything it schedules
  // is attributed to the component that set it in motion.  The observer
  // frame brackets exactly the action's execution.
  current_component_ = comp;
  if (frame_observers_.empty()) {
    action();
  } else {
    for (Observer* o : frame_observers_) o->enter(comp);
    action();
    for (Observer* o : frame_observers_) o->leave();
  }
  current_component_ = Component::kKernel;
}

bool Simulator::step() {
  if (policy_ != nullptr) return step_choice();
  HeapItem item{};
  Action action;
  Component comp = Component::kKernel;
  if (!pop_live(item, action, comp)) return false;
  fire(item, action, comp);
  return true;
}

bool Simulator::step_choice() {
  const HeapItem* first = peek_live();
  if (first == nullptr) return false;
  // Gather the co-enabled set: every live event whose fire time falls within
  // the commutation window of the earliest.  The heap pops in (when, seq)
  // order, so staged_ lists the candidates in FIFO order -- index 0 is the
  // event the default kernel would have fired.
  const SimTime limit = first->when + window_;
  staged_.clear();
  cands_.clear();
  while (!heap_.empty()) {
    const HeapItem top = heap_.front();
    if (!slot_live(top)) {
      heap_pop();  // cancelled; discard the corpse
      ++stats_.corpses_skipped;
      continue;
    }
    if (top.when > limit) break;
    heap_pop();
    staged_.push_back(top);
  }
  for (const HeapItem& it : staged_) {
    const Slot& s = slots_[it.slot];
    cands_.push_back(CoEnabledEvent{it.seq, it.when, s.comp, s.fp});
  }
  std::size_t pick = policy_->choose(cands_.data(), cands_.size());
  if (pick >= staged_.size()) pick = 0;
  const HeapItem item = staged_[pick];
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (i != pick) heap_push(staged_[i]);
  }
  Action action = std::move(slots_[item.slot].action);
  const Component comp = slots_[item.slot].comp;
  free_slot(item.slot);
  fire(item, action, comp);
  return true;
}

SimTime Simulator::next_event_time() {
  const HeapItem* next = peek_live();
  return next == nullptr ? SimTime::never() : next->when;
}

void Simulator::run() {
  for (Observer* o : frame_observers_) o->resync();
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  for (Observer* o : frame_observers_) o->resync();
  stop_requested_ = false;
  for (const HeapItem* next = peek_live();
       next != nullptr && next->when <= deadline; next = peek_live()) {
    step();
    if (stop_requested_) return;
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace hp2p::sim
