// FaultScheduleEngine: applies a FaultSchedule to a running hybrid system.
//
// Transport faults (loss, latency, partitions, stale HELLOs) run through the
// OverlayNetwork fault hook; membership faults (crash storms, join flash
// crowds) are scheduled as simulator events that act on the system directly.
// Everything is driven by the schedule's seed, so one (config, schedule)
// pair replays byte-identically.
#pragma once

#include <cstdint>

#include "chaos/fault_schedule.hpp"
#include "chaos/world.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "stats/flight_recorder.hpp"

namespace hp2p::chaos {

class FaultScheduleEngine {
 public:
  /// `flight` (optional, not owned) receives one record per phase at arm
  /// time and one per applied crash/join.
  FaultScheduleEngine(World& world, FaultSchedule schedule,
                      stats::FlightRecorder* flight = nullptr);

  /// Installs the transport fault hook and schedules the membership events;
  /// flash-crowd joiners take the world's next hosts.
  void arm();
  /// Removes the transport hook (call after the schedule has ended).
  void disarm();

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  [[nodiscard]] std::uint32_t crashes_applied() const {
    return crashes_applied_;
  }
  [[nodiscard]] std::uint32_t joins_applied() const { return joins_applied_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_delayed() const { return delayed_; }

 private:
  [[nodiscard]] proto::FaultAction on_message(PeerIndex from, PeerIndex to,
                                              proto::TrafficClass cls,
                                              std::uint32_t bytes);
  void apply_crash(const FaultPhase& phase, std::size_t phase_idx);
  void apply_join(const FaultPhase& phase, std::size_t phase_idx);
  [[nodiscard]] std::uint32_t domain_of(PeerIndex peer) const;

  World& world_;
  FaultSchedule schedule_;
  stats::FlightRecorder* flight_;
  Rng rng_;
  std::uint32_t crashes_applied_ = 0;
  std::uint32_t joins_applied_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace hp2p::chaos
