// Experiment runs of the two pure baselines the paper positions the hybrid
// against: a Chord ring (structured, the p_s = 0 end) and a Gnutella mesh
// (unstructured, the p_s = 1 end).  They go through the hybrid harness's
// driver (driver.hpp): the same substrate, op pacing, lookup phase and
// result collection, and the same phases and metrics as
// run_hybrid_experiment, so the comparison bench prints all three systems
// on one table.
#pragma once

#include "chord/chord.hpp"
#include "exp/harness.hpp"
#include "gnutella/gnutella.hpp"

namespace hp2p::exp {

/// Chord replica configuration.
struct ChordRunConfig : ExperimentConfig {
  chord::ChordParams chord;
  /// Run stabilization + fix_fingers during the measurement phases.
  bool maintenance = false;
};

/// Gnutella replica configuration.
struct GnutellaRunConfig : ExperimentConfig {
  gnutella::GnutellaParams gnutella;
};

/// Runs a full Chord replica (build -> populate -> lookups).
[[nodiscard]] RunResult run_chord_experiment(const ChordRunConfig& config);

/// Runs a full Gnutella replica.  Unstructured stores are local, so the
/// populate phase costs nothing on the wire.
[[nodiscard]] RunResult run_gnutella_experiment(
    const GnutellaRunConfig& config);

}  // namespace hp2p::exp
