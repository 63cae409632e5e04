// Order statistics over raw samples.
//
// Percentiles use the nearest-rank rule on the sorted samples, so a value
// is always one that was measured.  Failed requests enter a latency sample
// set as +infinity (kInf), which makes every percentile they reach
// infinite instead of silently dropping them.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank q-quantile (q in (0, 1]) of `sorted` (ascending).  NaN
/// when empty.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

/// Samples strictly beyond the nearest-rank q-quantile: n - ceil(q n).
[[nodiscard]] std::int64_t beyond(std::size_t n, double q);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that still leaves at least `min_beyond` samples above it, with its
/// value.  pct = 0 when even the median lacks that support.
struct Tail {
  double pct = 0;
  double value = 0;
};
[[nodiscard]] Tail supported_tail(const std::vector<double>& sorted, std::int64_t min_beyond = 10);

/// Median of an unsorted sample (copied); NaN when empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
