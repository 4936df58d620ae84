#include "nn/abft.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace pgmr::nn {
void abft_fold(double actual, double expected, AbftLayerCheck* check) {
  // The comparison goes through the negation so a NaN/Inf discrepancy
  // (corrupted weights overflowing the GEMM) fails instead of passing.
  const double rel = std::abs(actual - expected) / (1.0 + std::abs(expected));
  if (!(rel <= static_cast<double>(kAbftTolerance))) check->ok = false;
  if (std::isfinite(rel)) {
    check->max_rel_error =
        std::max(check->max_rel_error, static_cast<float>(rel));
  }
}

const char* to_string(Protection p) {
  switch (p) {
    case Protection::off: return "off";
    case Protection::final_fc: return "final_fc";
    case Protection::full: return "full";
  }
  return "unknown";
}

void abft_verify_rows(const float* a, const float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n,
                      const AbftChecksum& golden, AbftLayerCheck* check) {
  check->checked = true;
  const float* colsum = golden.colsum.data();
  for (std::int64_t r = 0; r < m; ++r) {
    double expected = golden.bias_sum;
    const float* arow = a + r * k;
    for (std::int64_t p = 0; p < k; ++p) {
      expected += static_cast<double>(arow[p]) * colsum[p];
    }
    double actual = 0.0;
    const float* crow = c + r * n;
    for (std::int64_t j = 0; j < n; ++j) actual += crow[j];
    abft_fold(actual, expected, check);
  }
}

void abft_verify_cols(const float* b, const float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n,
                      const AbftChecksum& golden, AbftLayerCheck* check) {
  check->checked = true;
  const float* colsum = golden.colsum.data();
  // expected[j] = sum_p colsum[p]·B[p,j] + bias_sum and actual[j] = sum_i
  // C[i,j], accumulated in double so the check adds no rounding noise of its
  // own. Both walk their matrix row by row; the per-thread buffers are reused
  // across calls.
  thread_local std::vector<double> expected;
  thread_local std::vector<double> actual;
  expected.assign(static_cast<std::size_t>(n), golden.bias_sum);
  actual.assign(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t p = 0; p < k; ++p) {
    const double w = colsum[p];
    if (w == 0.0) continue;
    const float* brow = b + p * n;
    for (std::int64_t j = 0; j < n; ++j) {
      expected[static_cast<std::size_t>(j)] += w * brow[j];
    }
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      actual[static_cast<std::size_t>(j)] += crow[j];
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    abft_fold(actual[static_cast<std::size_t>(j)],
              expected[static_cast<std::size_t>(j)], check);
  }
}

void abft_verify_affine(const float* x, const float* y, std::int64_t batch,
                        std::int64_t channels, std::int64_t spatial,
                        const AbftChecksum& golden, AbftLayerCheck* check) {
  check->checked = true;
  const float* scale = golden.colsum.data();
  for (std::int64_t n = 0; n < batch; ++n) {
    const std::int64_t base = n * channels * spatial;
    for (std::int64_t i = 0; i < spatial; ++i) {
      double expected = golden.bias_sum;
      double actual = 0.0;
      for (std::int64_t c = 0; c < channels; ++c) {
        const std::int64_t at = base + c * spatial + i;
        expected += static_cast<double>(scale[c]) * x[at];
        actual += y[at];
      }
      abft_fold(actual, expected, check);
    }
  }
}

void abft_guard_range(const float* y, std::int64_t n, float lo, float hi,
                      AbftLayerCheck* check) {
  check->checked = true;
  // Slack absorbs the float rounding between the recomputed envelope and
  // the layer's own arithmetic; a flipped exponent bit overshoots it by
  // orders of magnitude.
  const float slack =
      1e-5F * (1.0F + std::max(std::abs(lo), std::abs(hi)));
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = y[i];
    if (!(v >= lo - slack && v <= hi + slack)) {  // NaN fails both
      check->ok = false;
      return;
    }
  }
}

void abft_guard_finite(const float* y, std::int64_t n, AbftLayerCheck* check) {
  check->checked = true;
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(y[i])) {
      check->ok = false;
      return;
    }
  }
}

void abft_minmax(const float* x, std::int64_t n, float* lo, float* hi) {
  // The running min/max live in one vector register each, not behind the
  // out-pointers (which may alias x as far as the compiler knows); they are
  // folded and stored once. `v < lo ? v : lo` is exactly the serial
  // compare per lane, so a NaN fails both compares and is skipped.
#if defined(__AVX512F__)
  constexpr std::int64_t kLanes = 16;
#elif defined(__AVX__)
  constexpr std::int64_t kLanes = 8;
#else
  constexpr std::int64_t kLanes = 4;
#endif
  using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Lanes lane_lo;
  Lanes lane_hi;
  for (std::int64_t j = 0; j < kLanes; ++j) {
    lane_lo[j] = kInf;
    lane_hi[j] = -kInf;
  }
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Lanes v;
    std::memcpy(&v, x + i, sizeof v);
    lane_lo = v < lane_lo ? v : lane_lo;
    lane_hi = v > lane_hi ? v : lane_hi;
  }
  float l = kInf;
  float h = -kInf;
  for (std::int64_t j = 0; j < kLanes; ++j) {
    l = lane_lo[j] < l ? lane_lo[j] : l;
    h = lane_hi[j] > h ? lane_hi[j] : h;
  }
  for (; i < n; ++i) {
    l = x[i] < l ? x[i] : l;
    h = x[i] > h ? x[i] : h;
  }
  // Equal floats are bit-identical except +0 and -0. The serial scan keeps
  // the first zero in index order, which the lanes cannot know: find it.
  if (l == 0.0F || h == 0.0F) {
    const float first_zero = *std::find(x, x + n, 0.0F);
    if (l == 0.0F) l = first_zero;
    if (h == 0.0F) h = first_zero;
  }
  *lo = l;
  *hi = h;
}

}  // namespace pgmr::nn
