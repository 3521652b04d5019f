// Shared fixtures for protocol tests: one underlay + simulator + transport
// per test, deterministic per seed.
#pragma once

#include "common/rng.hpp"
#include "proto/overlay_network.hpp"

namespace hp2p::testing {

/// The fixture's RNG, a base so it is seeded before the substrate draws
/// from it.
struct SeededRng {
  Rng rng;
};

/// Bundles the simulation substrate every overlay test needs, built by the
/// same constructor as the experiment and chaos worlds.
class SimWorld : public SeededRng, public proto::Substrate {
 public:
  explicit SimWorld(std::uint64_t seed, std::uint32_t hosts = 200,
                    proto::OverlayNetworkOptions opts = {})
      : SeededRng{Rng(seed)}, Substrate(rng, hosts, opts) {}

  /// Round-robin host assignment for peers, skipping host 0 (the server's
  /// in hybrid tests).
  HostIndex next_host() {
    const auto h = HostIndex{1 + host_cursor_ % (underlay.num_hosts() - 1)};
    ++host_cursor_;
    return h;
  }

 private:
  std::uint32_t host_cursor_ = 0;
};

}  // namespace hp2p::testing
