// Sample statistics for the benchmark's reports: a linear-interpolated
// percentile, and the rule that picks which tail percentile a sample set
// can support (the highest one with at least ten samples beyond it).
// The benchmark keeps its own helper, rather than scenario::percentile,
// so that its statistics do not change when the simulator's do.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles are written in tenths of a percent so that the
/// samples-beyond count is exact integer arithmetic: 500 = p50,
/// 900 = p90, 990 = p99, 999 = p99.9.
using PerMille = std::uint32_t;

/// Samples strictly beyond percentile `p` of `n` samples:
/// floor(n * (1000 - p) / 1000).
[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n, PerMille p) {
  return n * (1000 - p) / 1000;
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, that
/// is, with at least ten samples beyond it; 0 when even the median has
/// fewer.
[[nodiscard]] constexpr PerMille highest_supported_tail(std::size_t n) {
  constexpr PerMille kLadder[] = {999, 990, 900, 500};
  for (PerMille p : kLadder) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

/// Linear-interpolated percentile over ascending `sorted` (the rank of
/// percentile p is p/1000 * (n - 1)). Empty input yields 0; callers
/// report the sample count beside the value.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              PerMille p) {
  if (sorted.empty()) return 0.0;
  const double rank = static_cast<double>(p) / 1000.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One reported percentile: its value, the sample count, and how many
/// samples lie beyond it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Percentile `p` of `values` (sorted in place).
[[nodiscard]] inline Quantile quantile(std::vector<double>& values,
                                       PerMille p) {
  std::sort(values.begin(), values.end());
  return Quantile{percentile_sorted(values, p), values.size(),
                  samples_beyond(values.size(), p)};
}

}  // namespace perfbench
