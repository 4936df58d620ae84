// Order statistics shared by the workloads and --compare.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pgmr_bench {

/// Quantile q in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// First and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// spreads read the same here as in any external check. Needs >= 2 values;
/// a single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0]};
  const long n = 4;
  const long m = ld + 1;
  const auto at = [&](long i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const auto delta = static_cast<double>(i * m - j * n);
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * (static_cast<double>(n) - delta) + hi * delta) /
           static_cast<double>(n);
  };
  return {at(1), at(3)};
}

}  // namespace pgmr_bench
