// The Fwd, Bkwd and XICI loops rebuilt from the same public calls the
// engines in src/verif make, with a span around every call into a layer.
// Each loop must reproduce runMethod's outcome for the same cell exactly;
// the traced run checks that on every cell it measures.
#pragma once

#include <cstdint>

#include "spans.hpp"
#include "verif/engine.hpp"

namespace perfbench {

/// Work counts read at the span boundaries of one or more loops.
struct LayerCounters {
  std::uint64_t termTautologyCalls = 0;
  std::uint64_t termShannonExpansions = 0;
  std::uint64_t simplifyApplications = 0;
  std::uint64_t greedyMerges = 0;
  std::uint64_t pairEntriesBuilt = 0;
  std::uint64_t gcUs = 0;
  std::uint64_t gcRuns = 0;
  std::uint64_t gcReclaimed = 0;
  std::uint64_t nodesCreated = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t uniqueLookups = 0;
  std::uint64_t uniqueChainSteps = 0;
  std::uint64_t iterations = 0;
};

/// Runs `method` (Fwd, Bkwd or XICI) on the machine like runMethod does,
/// recording spans into `rec` (whose manager must be fsm.mgr()) and adding
/// the loop's work counts to `counters`.
icb::EngineResult runTracedLoop(icb::Fsm& fsm, icb::Method method,
                                const icb::EngineOptions& options,
                                SpanRecorder& rec, LayerCounters& counters);

}  // namespace perfbench
