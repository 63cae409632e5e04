#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t rank(std::size_t n, double q) {
  // Nearest rank, 1-based: ceil(q n), clamped to [1, n].  The epsilon keeps
  // q n = 990.0000000001 from rounding up to the next sample.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sorted[rank(sorted.size(), q) - 1];
}

std::int64_t beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return static_cast<std::int64_t>(n - rank(n, q));
}

Tail supported_tail(const std::vector<double>& sorted, std::int64_t min_beyond) {
  static constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999};
  Tail tail;
  for (const double q : kLadder) {
    if (beyond(sorted.size(), q) < min_beyond) break;
    tail.pct = q * 100.0;
    tail.value = quantile_sorted(sorted, q);
  }
  return tail;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

}  // namespace perfbench
