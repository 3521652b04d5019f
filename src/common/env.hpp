// Environment-variable knobs for benchmarks and examples.
//
// Benchmarks default to paper-scale parameters (1,000 peers) but can be
// scaled up/down without recompiling, e.g. HP2P_PEERS=5000 HP2P_SEEDS=10.
#pragma once

#include <cstdint>
#include <string>

namespace hp2p {

/// Returns the integer value of environment variable `name`, or `fallback`
/// when unset or unparsable.
[[nodiscard]] std::int64_t env_or(const std::string& name,
                                  std::int64_t fallback);

/// Returns the double value of environment variable `name`, or `fallback`.
[[nodiscard]] double env_or(const std::string& name, double fallback);

/// Returns the string value of environment variable `name`, or `fallback`
/// when unset or empty.
[[nodiscard]] std::string env_or(const std::string& name,
                                 const char* fallback);

}  // namespace hp2p
