// Sample statistics for the benchmark's reported figures.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count.
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

struct TailPercentile {
  double p = 0.0;
  double value = 0.0;
};

/// The highest of p99.9 / p99 / p90 with at least ten samples above its
/// nearest rank, or nothing when even p90 has fewer than ten beyond it.
[[nodiscard]] inline std::optional<TailPercentile> tailPercentile(
    const std::vector<double>& samples) {
  for (const double p : {99.9, 99.0, 90.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    if (samples.size() >= rank + 10) {
      return TailPercentile{p, percentile(samples, p)};
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
