#include "nn/forward_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace pgmr::nn {
namespace {

// ---- vector tier, fixed at compile time ----------------------------------
//
// Vec is a GCC vector type in every tier (__m512 and __m256 are defined as
// such), so `acc + w * b` below is contracted into an FMA under exactly
// the rules that contract the scalar `crow[j] += av * brow[j]` of
// gemm_accumulate: the same compiler, flags and expression shape decide.
// DVec holds half a Vec's lanes widened to double, for the ABFT sums: a
// float-times-float product is exact in double, so whether the check's
// multiply-adds are contracted does not change its bits.

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
inline Vec load_mask(const float* base, std::int64_t at, std::uint32_t bits) {
  return _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits), base + at);
}
/// base[idx[l]] in the first n lanes whose idx[l] >= 0, zero elsewhere.
inline Vec gather(const float* base, const std::int32_t* idx, int n) {
  const __m512i at = _mm512_maskz_loadu_epi32(lanes(n), idx);
  const __mmask16 live =
      _mm512_mask_cmpge_epi32_mask(lanes(n), at, _mm512_setzero_si512());
  return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), live, at, base, 4);
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
inline Vec gather(const float* base, const std::int32_t* idx, int n) {
  const __m256i at = _mm256_maskload_epi32(idx, lanes(n));
  const __m256i live =
      _mm256_and_si256(lanes(n), _mm256_cmpgt_epi32(at, _mm256_set1_epi32(-1)));
  return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, at,
                                  _mm256_castsi256_ps(live), 4);
}
inline Vec load_mask(const float* base, std::int64_t at, std::uint32_t bits) {
  const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i set = _mm256_and_si256(
      _mm256_set1_epi32(static_cast<int>(bits)), bit);
  return _mm256_maskload_ps(base + at, _mm256_cmpeq_epi32(set, bit));
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
inline Vec load_mask(const float* base, std::int64_t at, std::uint32_t bits) {
  Vec v{};
  for (int l = 0; l < kLanes; ++l) {
    if (((bits >> l) & 1U) != 0U) v[l] = base[at + l];
  }
  return v;
}
inline Vec gather(const float* base, const std::int32_t* idx, int n) {
  Vec v{};
  for (int l = 0; l < n; ++l) {
    if (idx[l] >= 0) v[l] = base[idx[l]];
  }
  return v;
}
#endif

// The double helpers are one set for every tier: GCC vectors of half a
// Vec's lanes. (x − 0 is x for every x, -0.0 and NaN included, and GCC
// turns it into one broadcast.)
constexpr int kHalf = kLanes / 2;
using DVec = double __attribute__((vector_size(kHalf * sizeof(double))));
inline DVec dsplat(double x) { return x - DVec{}; }
inline DVec dload(const double* p) {
  DVec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void dstore(double* p, DVec v) { std::memcpy(p, &v, sizeof v); }

// Half a Vec widened to double: lanes [half·kHalf, half·kHalf + kHalf) of
// v, or the kHalf floats at p. The AVX tiers name the conversion: GCC 12
// lowers __builtin_convertvector of a half-width float vector into two
// narrower conversions and a merge, and widening the whole Vec instead
// made a resnet20 member 2 % slower under full protection.
#if defined(__AVX512F__)
// The masked forms with a full mask: the unmasked intrinsics start from an
// undefined vector, which GCC 12 reports as maybe-uninitialized.
inline DVec widen_half(Vec v, int half) {
  const __m512d halves = _mm512_castps_pd(v);
  const __m256d h = half == 0 ? _mm512_maskz_extractf64x4_pd(0xF, halves, 0)
                              : _mm512_maskz_extractf64x4_pd(0xF, halves, 1);
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_castpd_ps(h));
}
inline DVec widen_at(const float* p) {
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p));
}
#elif defined(__AVX2__)
inline DVec widen_half(Vec v, int half) {
  return _mm256_cvtps_pd(half == 0 ? _mm256_castps256_ps128(v)
                                   : _mm256_extractf128_ps(v, 1));
}
inline DVec widen_at(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
#else
inline DVec widen_half(Vec v, int half) {
  return DVec{v[2 * half], v[2 * half + 1]};
}
inline DVec widen_at(const float* p) { return DVec{p[0], p[1]}; }
#endif

// ---- register-blocked tiles ----------------------------------------------

/// Output rows (channels) per tile. 6 divides every conv width in the zoo
/// (6, 12, 24) and keeps 6 x 2 accumulators plus operands within 16
/// registers in the AVX2 and portable tiers.
constexpr int kTileRows = 6;

/// Output columns per B panel: two vectors.
constexpr int kPanelCols = 2 * kLanes;

/// One band of tiles over one B panel. The panel holds K rows of
/// NV·kLanes floats, zero past the block's `cols` valid columns.
struct Band {
  const float* a;      ///< the band's first weight row, row-major [rows, k]
  const float* bias;   ///< the band's biases
  std::int64_t row0;   ///< output channel of the band's first row
  std::int64_t k;
  const float* panel;
  const ConvEpilogue* epilogue;
  float* c;            ///< C[row0, j0]
  std::int64_t ldc;
  int cols;
  const float* colsum;  ///< golden column sums; null when unchecked
  double bias_sum;
  double* expected;     ///< per column of the block, written by band 0
  double* actual;       ///< per column of the block, summed band by band
};

/// One tile: MR rows x NV vectors of columns. Each accumulator starts from
/// the row's bias and takes the k terms in ascending order, skipping a zero
/// weight as the oracle's `if (av == 0.0F) continue;` does. kExpected adds
/// the golden column sums as one more row, in double, from bias_sum over
/// ascending p with abft_verify_cols' zero skip. The store applies the
/// epilogue, adds each value after the BatchNorm (before the ReLU) to its
/// column's double sum in row order, and writes the valid lanes.
///
/// Kept out of line: inlined into run_tiles (which GCC 12 does once
/// run_tiles has a single caller) the accumulators spill, and a resnet20
/// member ran 19 % slower unchecked (105 against 88 µs per sample).
template <int MR, int NV, bool kExpected>
[[gnu::noinline]] void tile(const Band& t) {
  Vec acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    const Vec start = splat(t.bias[r]);
    for (int v = 0; v < NV; ++v) acc[r][v] = start;
  }
  DVec expected[NV][2] = {};
  if constexpr (kExpected) {
    for (int v = 0; v < NV; ++v) {
      expected[v][0] = dsplat(t.bias_sum);
      expected[v][1] = expected[v][0];
    }
  }
  constexpr int kWidth = NV * kLanes;
  const Vec zero = splat(0.0F);
  for (std::int64_t p = 0; p < t.k; ++p) {
    const float* brow = t.panel + p * kWidth;
    Vec bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load(brow + v * kLanes);
    if constexpr (kExpected) {
      const float s = t.colsum[p];
      if (s != 0.0F) {
        const DVec sv = dsplat(s);
        for (int v = 0; v < NV; ++v) {
          expected[v][0] += sv * widen_at(brow + v * kLanes);
          expected[v][1] += sv * widen_at(brow + v * kLanes + kHalf);
        }
      }
    }
    for (int r = 0; r < MR; ++r) {
      // The skip as a select rather than a branch: every lane keeps its
      // accumulator when the weight is zero.
      const Vec wv = splat(t.a[r * t.k + p]);
      const auto live = wv != zero;
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = live ? acc[r][v] + wv * bv[v] : acc[r][v];
      }
    }
  }
  if constexpr (kExpected) {
    for (int v = 0; v < NV; ++v) {
      dstore(t.expected + v * kLanes, expected[v][0]);
      dstore(t.expected + v * kLanes + kHalf, expected[v][1]);
    }
  }

  const ConvEpilogue& e = *t.epilogue;
  DVec actual[NV][2] = {};
  if (t.actual != nullptr) {
    for (int v = 0; v < NV; ++v) {
      actual[v][0] = dload(t.actual + v * kLanes);
      actual[v][1] = dload(t.actual + v * kLanes + kHalf);
    }
  }
  for (int r = 0; r < MR; ++r) {
    const std::int64_t ch = t.row0 + r;
    Vec gamma{}, beta{}, mean{}, std_dev{};
    if (e.bn_gamma != nullptr) {
      gamma = splat(e.bn_gamma[ch]);
      beta = splat(e.bn_beta[ch]);
      mean = splat(e.bn_mean[ch]);
      std_dev = splat(std::sqrt(e.bn_var[ch] + e.bn_eps));
    }
    float* crow = t.c + r * t.ldc;
    for (int v = 0; v < NV; ++v) {
      Vec y = acc[r][v];
      if (e.bn_gamma != nullptr) y = gamma * ((y - mean) / std_dev) + beta;
      if (t.actual != nullptr) {
        actual[v][0] += widen_half(y, 0);
        actual[v][1] += widen_half(y, 1);
      }
      if (e.relu) y = y < zero ? zero : y;
      const int valid = t.cols - v * kLanes;
      if (valid >= kLanes) {
        store(crow + v * kLanes, y);
      } else {
        store_part(crow + v * kLanes, y, valid);
      }
    }
  }
  if (t.actual != nullptr) {
    for (int v = 0; v < NV; ++v) {
      dstore(t.actual + v * kLanes, actual[v][0]);
      dstore(t.actual + v * kLanes + kHalf, actual[v][1]);
    }
  }
}

template <int NV, bool kExpected>
void band_rows(int rows, const Band& t) {
  switch (rows) {
    case 6: tile<6, NV, kExpected>(t); break;
    case 5: tile<5, NV, kExpected>(t); break;
    case 4: tile<4, NV, kExpected>(t); break;
    case 3: tile<3, NV, kExpected>(t); break;
    case 2: tile<2, NV, kExpected>(t); break;
    default: tile<1, NV, kExpected>(t); break;
  }
}

/// C[M,N] = epilogue(bias + A·B) with B delivered a panel at a time by
/// `pack(panel, j0, cols, width)`: K rows of `width` floats holding B's
/// columns [j0, j0 + cols), zero past `cols`. Each panel is packed once
/// and swept by every band of kTileRows rows. With `golden` set the column
/// check runs in the same tiles and is folded into `check` per column.
template <class Pack>
void run_tiles(const float* a, const float* bias, std::int64_t m,
               std::int64_t k, std::int64_t n, const Pack& pack,
               const ConvEpilogue& epilogue, const AbftChecksum* golden,
               AbftLayerCheck* check, float* c) {
  thread_local std::vector<float> panel;
  const auto panel_size = static_cast<std::size_t>(k * kPanelCols);
  if (panel.size() < panel_size) panel.resize(panel_size);
  double expected[kPanelCols];
  double actual[kPanelCols];
  if (golden != nullptr) check->checked = true;
  Band t{};
  t.k = k;
  t.panel = panel.data();
  t.epilogue = &epilogue;
  t.ldc = n;
  t.colsum = golden != nullptr ? golden->colsum.data() : nullptr;
  t.bias_sum = golden != nullptr ? golden->bias_sum : 0.0;
  t.expected = expected;
  t.actual = golden != nullptr ? actual : nullptr;
  for (std::int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    t.cols = static_cast<int>(std::min<std::int64_t>(kPanelCols, n - j0));
    const int nv = t.cols > kLanes ? 2 : 1;
    pack(panel.data(), j0, t.cols, nv * kLanes);
    if (golden != nullptr) std::fill(actual, actual + kPanelCols, 0.0);
    for (std::int64_t i = 0; i < m; i += kTileRows) {
      const int rows =
          static_cast<int>(std::min<std::int64_t>(kTileRows, m - i));
      t.a = a + i * k;
      t.bias = bias + i;
      t.row0 = i;
      t.c = c + i * n + j0;
      const bool first = golden != nullptr && i == 0;
      if (nv == 2) {
        first ? band_rows<2, true>(rows, t) : band_rows<2, false>(rows, t);
      } else {
        first ? band_rows<1, true>(rows, t) : band_rows<1, false>(rows, t);
      }
    }
    if (golden != nullptr) {
      for (int j = 0; j < t.cols; ++j) abft_fold(actual[j], expected[j], check);
    }
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

// ---- B panels --------------------------------------------------------------

/// Packs columns [j0, j0 + cols) of a conv's column matrix (the rows
/// im2col would write, in its (channel, kh, kw) order) straight from one
/// image into a panel of `width`-float rows, zero past `cols`.
class ImagePanels {
 public:
  explicit ImagePanels(const ConvGeometry& geo)
      : geo_(geo),
        out_w_(geo.out_w()),
        n_(geo.out_h() * geo.out_w()),
        same_rows_(geo.stride == 1 && geo.out_w() == geo.in_w) {
    if (same_rows_) {
      build_masks();
    } else {
      build_index();
    }
  }

  void set_image(const float* image) { image_ = image; }

  void operator()(float* panel, std::int64_t j0, int cols, int width) const {
    if (same_rows_) {
      pack_shifted(panel, j0, width);
    } else {
      pack_gathered(panel, j0, cols, width);
    }
  }

 private:
  /// Stride 1 with out_w == in_w ("same" padding, or a 1x1 conv): column j
  /// of patch row (c, kh, kw) is image element j + (kh-pad)·in_w + kw-pad
  /// of plane c wherever that pixel lies inside the image. So each panel
  /// vector is one masked load, with the mask depending on (kh, kw) and the
  /// column group only: the lanes whose output row keeps kh inside the
  /// image (one range of columns) and whose output column keeps kw inside
  /// it (a pattern with period out_w). Lanes past n_ have a zero mask.
  void build_masks() {
    const std::int64_t k = geo_.kernel;
    groups_ = (n_ + kLanes - 1) / kLanes;
    std::vector<std::uint32_t> cols(static_cast<std::size_t>(k * groups_));
    for (std::int64_t kw = 0; kw < k; ++kw) {
      const std::int64_t dx = kw - geo_.pad;
      std::int64_t x = 0;
      for (std::int64_t g = 0; g < groups_; ++g) {
        std::uint32_t bits = 0;
        for (int l = 0; l < kLanes; ++l) {
          if (x + dx >= 0 && x + dx < geo_.in_w) bits |= 1U << l;
          if (++x == out_w_) x = 0;
        }
        cols[static_cast<std::size_t>(kw * groups_ + g)] = bits;
      }
    }
    masks_.resize(static_cast<std::size_t>(k * k * groups_));
    for (std::int64_t kh = 0; kh < k; ++kh) {
      // Output rows y with 0 <= y + kh - pad < in_h, as a column range.
      const std::int64_t dy = kh - geo_.pad;
      const std::int64_t first = std::max<std::int64_t>(0, -dy) * out_w_;
      const std::int64_t end =
          std::min<std::int64_t>(geo_.out_h(), geo_.in_h - dy) * out_w_;
      for (std::int64_t g = 0; g < groups_; ++g) {
        const std::int64_t lo =
            std::clamp<std::int64_t>(first - g * kLanes, 0, kLanes);
        const std::int64_t hi =
            std::clamp<std::int64_t>(end - g * kLanes, 0, kLanes);
        const std::uint32_t rows =
            hi > lo ? ((1U << hi) - 1U) & ~((1U << lo) - 1U) : 0U;
        for (std::int64_t kw = 0; kw < k; ++kw) {
          masks_[static_cast<std::size_t>((kh * k + kw) * groups_ + g)] =
              rows & cols[static_cast<std::size_t>(kw * groups_ + g)];
        }
      }
    }
  }

  void pack_shifted(float* panel, std::int64_t j0, int width) const {
    const std::int64_t k = geo_.kernel;
    const std::int64_t plane = geo_.in_h * geo_.in_w;
    const std::int64_t group = j0 / kLanes;
    float* dst = panel;
    for (std::int64_t c = 0; c < geo_.in_channels; ++c) {
      const float* src = image_ + c * plane;
      for (std::int64_t kh = 0; kh < k; ++kh) {
        for (std::int64_t kw = 0; kw < k; ++kw, dst += width) {
          const std::int64_t shift =
              j0 + (kh - geo_.pad) * geo_.in_w + kw - geo_.pad;
          const std::uint32_t* bits =
              masks_.data() + (kh * k + kw) * groups_ + group;
          for (int v = 0; v * kLanes < width; ++v) {
            store(dst + v * kLanes,
                  load_mask(src, shift + v * kLanes, bits[v]));
          }
        }
      }
    }
  }

  /// Any other geometry (a stride above 1, "valid" padding): column j of
  /// patch row (c, kh, kw) is pixel index_[(kh·k + kw)·n + j] of plane c,
  /// or padding where that index is -1. Each panel vector is one gather.
  void build_index() {
    const std::int64_t k = geo_.kernel;
    const std::int64_t s = geo_.stride;
    index_.resize(static_cast<std::size_t>(k * k * n_));
    std::int32_t* at = index_.data();
    for (std::int64_t kh = 0; kh < k; ++kh) {
      for (std::int64_t kw = 0; kw < k; ++kw) {
        for (std::int64_t y = 0; y < geo_.out_h(); ++y) {
          const std::int64_t iy = y * s + kh - geo_.pad;
          for (std::int64_t x = 0; x < out_w_; ++x) {
            const std::int64_t ix = x * s + kw - geo_.pad;
            const bool inside =
                iy >= 0 && iy < geo_.in_h && ix >= 0 && ix < geo_.in_w;
            *at++ = inside ? static_cast<std::int32_t>(iy * geo_.in_w + ix)
                           : -1;
          }
        }
      }
    }
  }

  void pack_gathered(float* panel, std::int64_t j0, int cols,
                     int width) const {
    const std::int64_t taps = geo_.kernel * geo_.kernel;
    const std::int64_t plane = geo_.in_h * geo_.in_w;
    float* dst = panel;
    for (std::int64_t c = 0; c < geo_.in_channels; ++c) {
      const float* src = image_ + c * plane;
      for (std::int64_t tap = 0; tap < taps; ++tap, dst += width) {
        const std::int32_t* idx = index_.data() + tap * n_ + j0;
        for (int v = 0; v * kLanes < width; ++v) {
          const int valid = std::clamp(cols - v * kLanes, 0, kLanes);
          store(dst + v * kLanes, gather(src, idx + v * kLanes, valid));
        }
      }
    }
  }

  ConvGeometry geo_;
  std::int64_t out_w_;
  std::int64_t n_;
  bool same_rows_;
  std::int64_t groups_ = 0;
  const float* image_ = nullptr;
  std::vector<std::uint32_t> masks_;
  std::vector<std::int32_t> index_;
};

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

void conv_forward(const float* input, std::int64_t batch,
                  const ConvGeometry& geo, const float* weight,
                  const float* bias, std::int64_t out_c,
                  const ConvEpilogue& epilogue, const AbftChecksum* golden,
                  AbftLayerCheck* check, float* out) {
  const std::int64_t n = geo.out_h() * geo.out_w();
  const std::int64_t k = geo.patch_size();
  if (golden != nullptr && golden->colsum.numel() != k) {
    throw std::invalid_argument(
        "conv_forward: golden checksum has " +
        std::to_string(golden->colsum.numel()) + " column sums, patch is " +
        std::to_string(k));
  }
  const std::int64_t in_size = geo.in_channels * geo.in_h * geo.in_w;
  ImagePanels panels(geo);
  for (std::int64_t s = 0; s < batch; ++s) {
    panels.set_image(input + s * in_size);
    run_tiles(weight, bias, out_c, k, n, panels, epilogue, golden, check,
              out + s * out_c * n);
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
