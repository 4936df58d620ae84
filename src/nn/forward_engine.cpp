#include "nn/forward_engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pgmr::nn {
namespace {

// ---- vector tier, fixed at compile time ----------------------------------
//
// Vec is a GCC vector type in every tier (__m512 and __m256 are defined as
// such), so `acc += w * b` below is contracted into an FMA under exactly
// the rules that contract the scalar `crow[j] += av * brow[j]` of
// gemm_accumulate: the same compiler, flags and expression shape decide.

#if defined(__AVX512F__)
using Vec = __m512;
constexpr int kLanes = 16;
inline Vec splat(float x) { return _mm512_set1_ps(x); }
inline Vec load(const float* p) { return _mm512_loadu_ps(p); }
inline void store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
inline __mmask16 lanes(int n) { return static_cast<__mmask16>((1U << n) - 1); }
inline Vec load_part(const float* p, int n) {
  return _mm512_maskz_loadu_ps(lanes(n), p);
}
inline void store_part(float* p, Vec v, int n) {
  _mm512_mask_storeu_ps(p, lanes(n), v);
}
#elif defined(__AVX2__)
using Vec = __m256;
constexpr int kLanes = 8;
inline Vec splat(float x) { return _mm256_set1_ps(x); }
inline Vec load(const float* p) { return _mm256_loadu_ps(p); }
inline void store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
inline __m256i lanes(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline Vec load_part(const float* p, int n) {
  return _mm256_maskload_ps(p, lanes(n));
}
inline void store_part(float* p, Vec v, int n) {
  _mm256_maskstore_ps(p, lanes(n), v);
}
#else
constexpr int kLanes = 4;
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));
inline Vec splat(float x) { return Vec{x, x, x, x}; }
inline Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }
inline Vec load_part(const float* p, int n) {
  Vec v{};
  std::memcpy(&v, p, static_cast<std::size_t>(n) * sizeof(float));
  return v;
}
inline void store_part(float* p, Vec v, int n) {
  std::memcpy(p, &v, static_cast<std::size_t>(n) * sizeof(float));
}
#endif

// ---- register-blocked GEMM ------------------------------------------------

/// Output rows (channels) per tile. 6 divides every conv width in the zoo
/// (6, 12, 24) and keeps 6 x 2 accumulators plus operands within 16
/// registers in the AVX2 and portable tiers.
constexpr int kTileRows = 6;

/// One tile of C: MR rows x NV vectors of columns, the last vector holding
/// `tail` lanes when kPartial. Each accumulator starts from the row's bias
/// and takes the k terms in ascending order, skipping a zero weight as the
/// oracle's `if (av == 0.0F) continue;` does.
template <int MR, int NV, bool kPartial>
void tile(const float* a, const float* bias, const float* b, float* c,
          std::int64_t k, std::int64_t n, int tail) {
  Vec acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    const Vec start = splat(bias[r]);
    for (int v = 0; v < NV; ++v) acc[r][v] = start;
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * n;
    Vec bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = (kPartial && v == NV - 1) ? load_part(brow + v * kLanes, tail)
                                        : load(brow + v * kLanes);
    }
    for (int r = 0; r < MR; ++r) {
      const float w = a[r * k + p];
      if (w == 0.0F) continue;
      const Vec wv = splat(w);
      for (int v = 0; v < NV; ++v) acc[r][v] += wv * bv[v];
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * n;
    for (int v = 0; v < NV; ++v) {
      if (kPartial && v == NV - 1) {
        store_part(crow + v * kLanes, acc[r][v], tail);
      } else {
        store(crow + v * kLanes, acc[r][v]);
      }
    }
  }
}

template <int NV, bool kPartial>
void tile_rows(int rows, const float* a, const float* bias, const float* b,
               float* c, std::int64_t k, std::int64_t n, int tail) {
  switch (rows) {
    case 6: tile<6, NV, kPartial>(a, bias, b, c, k, n, tail); break;
    case 5: tile<5, NV, kPartial>(a, bias, b, c, k, n, tail); break;
    case 4: tile<4, NV, kPartial>(a, bias, b, c, k, n, tail); break;
    case 3: tile<3, NV, kPartial>(a, bias, b, c, k, n, tail); break;
    case 2: tile<2, NV, kPartial>(a, bias, b, c, k, n, tail); break;
    default: tile<1, NV, kPartial>(a, bias, b, c, k, n, tail); break;
  }
}

// ---- dense dot products ---------------------------------------------------

/// R outputs of one sample at once, each its own chain summed as in
/// gemm_a_bt: from 0.0F over p in order, then added to the bias. Whether a
/// product is rounded before its add is the compiler's choice in both
/// loops, so their bits agree only where it chooses alike (the checked
/// builds are named in forward_engine.h at gemm_a_bt_bias).
template <int R>
void dots(const float* x, const float* w, const float* bias, float* out,
          std::int64_t k) {
  float acc[R] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const float xv = x[p];
    for (int r = 0; r < R; ++r) acc[r] += xv * w[r * k + p];
  }
  for (int r = 0; r < R; ++r) {
    float o = bias[r];
    o += acc[r];
    out[r] = o;
  }
}

constexpr int kDots = 8;

// ---- im2col ---------------------------------------------------------------

/// First output index o >= 0 whose input index o*stride + offset is >= 0,
/// clamped to `out`.
std::int64_t first_inside(std::int64_t offset, std::int64_t stride,
                          std::int64_t out) {
  const std::int64_t first = offset >= 0 ? 0 : (stride - 1 - offset) / stride;
  return std::min(first, out);
}

/// First output index at or after `first` whose input index is >= size.
std::int64_t end_inside(std::int64_t offset, std::int64_t stride,
                        std::int64_t size, std::int64_t first,
                        std::int64_t out) {
  const std::int64_t span = size - offset;
  const std::int64_t end = span <= 0 ? 0 : (span + stride - 1) / stride;
  return std::max(first, std::min(end, out));
}

// The runs below are short (a border column, one image row). In the AVX
// tiers they are masked vector stores, which the compiler cannot turn into
// memcpy or memset calls whose call overhead would exceed the copy itself.

/// dst[0, n) = src[0, n), a vector at a time.
void copy_run(float* dst, const float* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; i += kLanes) {
    const int w = static_cast<int>(std::min<std::int64_t>(kLanes, n - i));
    store_part(dst + i, load_part(src + i, w), w);
  }
}

/// dst[0, n) = 0, a vector at a time.
void zero_run(float* dst, std::int64_t n) {
  const Vec zero = splat(0.0F);
  for (std::int64_t i = 0; i < n; i += kLanes) {
    store_part(dst + i, zero,
               static_cast<int>(std::min<std::int64_t>(kLanes, n - i)));
  }
}

}  // namespace

void im2col_fast(const float* image, const ConvGeometry& geo, float* col) {
  const std::int64_t oh = geo.out_h();
  const std::int64_t ow = geo.out_w();
  const std::int64_t s = geo.stride;
  const std::int64_t in_w = geo.in_w;
  const std::int64_t plane = geo.in_h * in_w;
  // Column-matrix rows are ordered (channel, kh, kw); the valid window of a
  // row depends only on (kh, kw), so those loops go outside the channels.
  const std::int64_t row_step = geo.kernel * geo.kernel * oh * ow;
  // Stride 1 with out_w == in_w ("same" padding): consecutive output rows
  // read consecutive input rows, so one copy covers every interior row and
  // only the border columns it wrapped over need zeroing afterwards.
  const bool same_rows = s == 1 && ow == in_w;
  for (std::int64_t kh = 0; kh < geo.kernel; ++kh) {
    const std::int64_t dy = kh - geo.pad;
    const std::int64_t y0 = first_inside(dy, s, oh);
    const std::int64_t y1 = end_inside(dy, s, geo.in_h, y0, oh);
    for (std::int64_t kw = 0; kw < geo.kernel; ++kw) {
      const std::int64_t dx = kw - geo.pad;
      const std::int64_t x0 = first_inside(dx, s, ow);
      const std::int64_t x1 = end_inside(dx, s, in_w, x0, ow);
      float* out = col + (kh * geo.kernel + kw) * oh * ow;
      const float* src = image + (y0 * s + dy) * in_w + x0 * s + dx;
      for (std::int64_t c = 0; c < geo.in_channels;
           ++c, out += row_step, src += plane) {
        zero_run(out, y0 * ow);
        zero_run(out + y1 * ow, (oh - y1) * ow);
        if (y0 == y1) continue;
        if (same_rows && x0 < x1) {
          copy_run(out + y0 * ow + x0, src, (y1 - 1 - y0) * ow + x1 - x0);
          for (std::int64_t y = y0; y < y1; ++y) {
            zero_run(out + y * ow, x0);
            zero_run(out + y * ow + x1, ow - x1);
          }
          continue;
        }
        for (std::int64_t y = y0; y < y1; ++y) {
          float* dst = out + y * ow;
          const float* row = src + (y - y0) * s * in_w;
          zero_run(dst, x0);
          if (s == 1) {
            copy_run(dst + x0, row, x1 - x0);
          } else {
            for (std::int64_t x = x0; x < x1; ++x) dst[x] = row[(x - x0) * s];
          }
          zero_run(dst + x1, ow - x1);
        }
      }
    }
  }
}

void gemm_bias(const float* a, const float* bias, const float* b, float* c,
               std::int64_t m, std::int64_t k, std::int64_t n) {
  // Bands of up to kTileRows rows of C, each swept across all N columns.
  for (std::int64_t i = 0; i < m; i += kTileRows) {
    const int rows = static_cast<int>(std::min<std::int64_t>(kTileRows, m - i));
    const float* band_a = a + i * k;
    const float* band_bias = bias + i;
    float* band_c = c + i * n;
    std::int64_t j = 0;
    for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
      tile_rows<2, false>(rows, band_a, band_bias, b + j, band_c + j, k, n, 0);
    }
    for (; j + kLanes <= n; j += kLanes) {
      tile_rows<1, false>(rows, band_a, band_bias, b + j, band_c + j, k, n, 0);
    }
    if (j < n) {
      tile_rows<1, true>(rows, band_a, band_bias, b + j, band_c + j, k, n,
                         static_cast<int>(n - j));
    }
  }
}

void gemm_a_bt_bias(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* x = a + i * k;
    float* out = c + i * n;
    std::int64_t j = 0;
    for (; j + kDots <= n; j += kDots) {
      dots<kDots>(x, b + j * k, bias + j, out + j, k);
    }
    switch (n - j) {
      case 7: dots<7>(x, b + j * k, bias + j, out + j, k); break;
      case 6: dots<6>(x, b + j * k, bias + j, out + j, k); break;
      case 5: dots<5>(x, b + j * k, bias + j, out + j, k); break;
      case 4: dots<4>(x, b + j * k, bias + j, out + j, k); break;
      case 3: dots<3>(x, b + j * k, bias + j, out + j, k); break;
      case 2: dots<2>(x, b + j * k, bias + j, out + j, k); break;
      case 1: dots<1>(x, b + j * k, bias + j, out + j, k); break;
      default: break;
    }
  }
}

}  // namespace pgmr::nn
