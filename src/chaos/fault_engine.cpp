#include "chaos/fault_engine.hpp"

#include <algorithm>
#include <utility>

namespace hp2p::chaos {

using proto::TrafficClass;

FaultScheduleEngine::FaultScheduleEngine(World& world, FaultSchedule schedule,
                                         stats::FlightRecorder* flight)
    : world_(world), schedule_(std::move(schedule)), flight_(flight),
      rng_(schedule_.seed) {}

std::uint32_t FaultScheduleEngine::domain_of(PeerIndex peer) const {
  const auto& topo = world_.underlay.topology();
  return topo.domain[world_.network.host_of(peer).value()];
}

void FaultScheduleEngine::arm() {
  world_.network.set_fault([this](PeerIndex from, PeerIndex to,
                                  TrafficClass cls, std::uint32_t bytes) {
    return on_message(from, to, cls, bytes);
  });
  for (std::size_t i = 0; i < schedule_.phases.size(); ++i) {
    const FaultPhase& phase = schedule_.phases[i];
    if (flight_ != nullptr) {
      flight_->record(phase.start, "chaos_phase", i,
                      static_cast<std::uint64_t>(phase.kind), phase.count);
    }
    const bool crash = phase.kind == FaultKind::kTPeerCrashStorm ||
                       phase.kind == FaultKind::kSPeerCrashStorm;
    const bool join = phase.kind == FaultKind::kJoinFlashCrowd;
    if (!crash && !join) continue;
    // Spread the `count` membership events evenly across the phase.
    const std::uint32_t n = std::max<std::uint32_t>(phase.count, 1);
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto offset = sim::SimTime::micros(
          phase.duration.as_micros() * k / n);
      world_.sim.schedule_at(phase.start + offset, [this, i, crash] {
        sim::ComponentScope prof{world_.sim, sim::Component::kChaos};
        const FaultPhase& p = schedule_.phases[i];
        if (crash) {
          apply_crash(p, i);
        } else {
          apply_join(p, i);
        }
      });
    }
  }
}

void FaultScheduleEngine::disarm() { world_.network.set_fault({}); }

proto::FaultAction FaultScheduleEngine::on_message(PeerIndex from,
                                                   PeerIndex to,
                                                   TrafficClass cls,
                                                   std::uint32_t bytes) {
  proto::FaultAction action;
  const sim::SimTime now = world_.sim.now();
  for (const FaultPhase& p : schedule_.phases) {
    if (now < p.start || p.end() <= now) continue;
    switch (p.kind) {
      case FaultKind::kLossBurst:
        if ((cls != TrafficClass::kControl || p.affect_control) &&
            rng_.chance(p.intensity)) {
          action.drop = true;
        }
        break;
      case FaultKind::kLatencyStorm: {
        const auto base = world_.network.hop_latency(from, to, bytes);
        action.extra_delay += sim::SimTime::micros(static_cast<std::int64_t>(
            static_cast<double>(base.as_micros()) * p.intensity));
        break;
      }
      case FaultKind::kPartition: {
        const bool from_low = domain_of(from) < p.param;
        const bool to_low = domain_of(to) < p.param;
        const bool crosses =
            (from_low && !to_low) || (p.symmetric && !from_low && to_low);
        if (!crosses) break;
        if (cls == TrafficClass::kControl) {
          // Control transfer is modeled reliable (retransmitted until the
          // partition heals): park the message until just past phase end.
          action.extra_delay += p.end() - now + sim::SimTime::millis(1);
        } else {
          action.drop = true;
        }
        break;
      }
      case FaultKind::kStaleHello:
        if (cls == TrafficClass::kHeartbeat) {
          action.extra_delay +=
              sim::SimTime::millis(static_cast<std::int64_t>(p.param));
        }
        break;
      case FaultKind::kTPeerCrashStorm:
      case FaultKind::kSPeerCrashStorm:
      case FaultKind::kJoinFlashCrowd:
      case FaultKind::kCount_:
        break;
    }
    if (action.drop) break;
  }
  dropped_ += action.drop ? 1u : 0u;
  delayed_ += (!action.drop && action.extra_delay > sim::SimTime{}) ? 1u : 0u;
  return action;
}

void FaultScheduleEngine::apply_crash(const FaultPhase& phase,
                                      std::size_t phase_idx) {
  const bool want_tpeer = phase.kind == FaultKind::kTPeerCrashStorm;
  std::vector<PeerIndex> candidates;
  std::size_t live_tpeers = 0;
  for (const PeerIndex p : world_.live_nonserver_peers()) {
    const bool is_t = world_.system.role_of(p) == hybrid::Role::kTPeer;
    live_tpeers += is_t ? 1 : 0;
    if (is_t == want_tpeer) candidates.push_back(p);
  }
  if (candidates.empty()) return;
  const PeerIndex victim = candidates[rng_.index(candidates.size())];
  if (want_tpeer) {
    // Keep the system recoverable: a t-peer may only crash while another
    // t-peer survives or its own s-network has members to compete for the
    // slot.
    const bool has_orphans =
        world_.system.snetwork_members(victim).size() > 1;
    if (live_tpeers <= 1 && !has_orphans) return;
  }
  ++crashes_applied_;
  if (flight_ != nullptr) {
    flight_->record(world_.sim.now(), "chaos_crash", victim.value(),
                    want_tpeer ? 1 : 0, phase_idx);
  }
  world_.system.crash(victim);
}

void FaultScheduleEngine::apply_join(const FaultPhase& phase,
                                     std::size_t phase_idx) {
  ++joins_applied_;
  const PeerIndex joiner = world_.system.add_peer_with_role(
      world_.next_host(), hybrid::Role::kSPeer);
  if (flight_ != nullptr) {
    flight_->record(world_.sim.now(), "chaos_join", joiner.value(), 0,
                    phase_idx);
  }
  (void)phase;
}

}  // namespace hp2p::chaos
