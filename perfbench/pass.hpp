// One pass of a workload: every cell once, in a seed-chosen order, each on a
// fresh BddManager.  Set-up (manager + model construction) and verification
// are timed apart.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells.hpp"
#include "outcome.hpp"
#include "spans.hpp"
#include "traced_loops.hpp"

namespace perfbench {

struct CellRun {
  const CellSpec* spec = nullptr;
  Outcome outcome;
  double setupS = 0.0;
  double verifyS = 0.0;
  std::uint64_t peakAllocatedNodes = 0;
};

struct PassResult {
  std::vector<CellRun> cells;  ///< in the order they ran

  [[nodiscard]] double setupS() const;
  [[nodiscard]] double verifyS() const;
  [[nodiscard]] std::uint64_t peakAllocatedNodes() const;
};

/// A permutation of 0..n-1 drawn from (seed, pass): the same arguments give
/// the same order on every platform.
[[nodiscard]] std::vector<std::size_t> passOrder(std::size_t n,
                                                 std::uint64_t seed,
                                                 unsigned pass);

/// Builds and tears down every cell's manager and model, verifying nothing;
/// returns the summed set-up seconds, timed as in a pass.
[[nodiscard]] double runSetupRound(const Workload& workload,
                                   const std::vector<std::size_t>& order);

/// Runs the cells through runMethod, untraced.
[[nodiscard]] PassResult runEnginePass(const Workload& workload,
                                       const std::vector<std::size_t>& order);

/// Runs the cells through the rebuilt loops, recording spans into `rec`
/// (model construction included) and work counts into `counters`.
[[nodiscard]] PassResult runTracedPass(const Workload& workload,
                                       const std::vector<std::size_t>& order,
                                       SpanRecorder& rec,
                                       LayerCounters& counters);

/// The per-layer metrics of one traced pass, keyed by metric name.
/// `trace.overhead_frac` is left to the caller, which holds the untraced
/// pass it compares against.
[[nodiscard]] std::map<std::string, double> layerMetrics(
    const PassResult& pass, const std::vector<Span>& spans,
    const LayerCounters& counters);

}  // namespace perfbench
