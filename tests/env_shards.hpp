// The shard count a test suite builds its collections and stores at.
#pragma once

#include <cstddef>
#include <cstdlib>

namespace gptc::db {

/// GPTC_SHARDS=N re-runs a suite against the sharded layout (the CI engine
/// job sets 4). Unset, it returns 0: a Collection built with 0 shards has
/// one, and EngineOptions::shards = 0 gives a fresh directory one, so both
/// layouts stay covered.
inline std::size_t env_shards() {
  const char* v = std::getenv("GPTC_SHARDS");
  if (v == nullptr || *v == '\0') return 0;
  return static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
}

}  // namespace gptc::db
