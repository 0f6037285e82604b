// A cell's outcome -- the part of a run that must not depend on timing or on
// how the loop was instrumented -- and the committed goldens it is checked
// against (goldens.txt).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "verif/engine.hpp"

namespace perfbench {

struct Outcome {
  std::string verdict;
  unsigned iterations = 0;
  std::uint64_t peakIterateNodes = 0;
  std::vector<std::uint64_t> memberSizes;
  /// Counterexample length in states, absent when no trace was built.
  std::optional<std::size_t> cexLength;
  /// validateTrace's verdict on that counterexample.
  bool cexValid = false;

  bool operator==(const Outcome&) const = default;
};

/// Reads the outcome off an engine result, replaying any counterexample
/// through validateTrace against the property the run checked.
[[nodiscard]] Outcome outcomeOf(const icb::Fsm& fsm,
                                const icb::EngineResult& result,
                                bool withAssists);

/// One goldens.txt line: `<cell> <verdict> <iterations> <peak nodes>
/// <members|-> <cex length|-> <valid|invalid|->`.
[[nodiscard]] std::string formatGoldenLine(const std::string& cell,
                                           const Outcome& outcome);

using Goldens = std::map<std::string, Outcome>;

/// Parses goldens text; throws std::runtime_error naming the bad line.
[[nodiscard]] Goldens parseGoldens(const std::string& text);
/// Reads and parses a goldens file; throws std::runtime_error.
[[nodiscard]] Goldens loadGoldens(const std::string& path);

/// Empty when `actual` is an acceptable outcome for `cell`: a golden exists,
/// matches field by field, and the verdict is not a cap.  Otherwise a
/// one-line reason.
[[nodiscard]] std::string checkOutcome(const Goldens& goldens,
                                       const std::string& cell,
                                       const Outcome& actual);

}  // namespace perfbench
