// The fast forward engine behind Conv2D and Dense.
//
// Every function here has a scalar oracle and returns the same bits: the
// conv pass matches im2col + gemm_accumulate (gemm.h / im2col.h) followed
// by BatchNorm::forward and ReLU::forward, its check matches
// abft_verify_cols (abft.h). The GEMMs keep the oracle's summation: each
// output element is summed over k in ascending order from the same
// starting value, with a multiply-add written as `acc += a * b` exactly
// where the oracle writes it, so the compiler contracts both into FMA (or
// neither) under the same flags. The store's BatchNorm expression has the
// shape of BatchNorm's own loop for the same reason. Only independent
// output elements are computed side by side.
//
// The ISA is picked at compile time (AVX-512F, AVX2 or portable vectors).
// Nothing caches or repacks the weights between calls: the CRC scrubber,
// the golden ABFT checksums and the fault injector act on the live weight
// tensors, and each call reads them afresh.
#pragma once

#include <cstdint>

#include "nn/abft.h"
#include "nn/im2col.h"

namespace pgmr::nn {

/// What a conv's store applies to each output after its bias, in layer
/// order: the eval BatchNorm y = gamma·((x − mean) / sqrt(var + eps)) +
/// beta when `bn_gamma` is set (per-channel arrays, BatchNorm's own
/// terms), then ReLU y = x < 0 ? 0 : x when `relu` is set.
struct ConvEpilogue {
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  const float* bn_mean = nullptr;
  const float* bn_var = nullptr;
  float bn_eps = 0.0F;
  bool relu = false;
};

/// One inference convolution over a batch of CHW images, as a single
/// register-tiled pass per sample:
///  - B panels (K rows × one or two vectors of output pixels) are packed
///    straight from the image into a per-thread panel that stays in L1, so
///    no column matrix is written;
///  - each tile of out[oc, pixel] starts from bias[oc] and takes the K terms
///    in ascending order, skipping a zero weight (a non-finite pixel behind
///    it never reaches the output);
///  - the store applies `epilogue`.
///
/// With `golden` set (a gemm or folded checksum), the Huang–Abraham column
/// check runs in the same pass with abft_verify_cols' arithmetic:
/// expected[j] is summed in double from golden->bias_sum over ascending p,
/// skipping colsum[p] == 0, as one more row of the first tile band that
/// shares its B loads; actual[j] is the double sum, over ascending output
/// channels, of the stored values after the BatchNorm and before the ReLU;
/// every column is folded into `check` once. So `check` ends as
/// abft_verify_cols(col, bn_out, ...) per sample would leave it.
///
/// `weight` is row-major [out_c, geo.patch_size()] with patch rows ordered
/// (channel, kh, kw) as im2col's; `out` receives [batch, out_c, out_h·out_w]
/// and is fully overwritten.
void conv_forward(const float* input, std::int64_t batch,
                  const ConvGeometry& geo, const float* weight,
                  const float* bias, std::int64_t out_c,
                  const ConvEpilogue& epilogue, const AbftChecksum* golden,
                  AbftLayerCheck* check, float* out);

/// im2col() without per-element bounds checks: padded border rows and
/// columns are zero-filled in runs, interior runs are copied (stride 1) or
/// gathered (any other stride). Writes every element of `col`. Used by the
/// training forward, which keeps the column matrix for backward.
void im2col_fast(const float* image, const ConvGeometry& geo, float* col);

/// C[M,N] = bias[j] + dot(A[i,:], B[j,:]) with the bits of filling C's
/// column j with bias[j] and calling gemm_a_bt(a, b, c, m, k, n): each dot
/// product is summed from 0.0F over p in ascending order, then added to the
/// bias. B is stored [N,K]; C is fully overwritten.
///
/// Unlike conv_forward, this identity rests on GCC's vectorizer as well as on
/// the source: GCC turns gemm_a_bt's dot product into an in-order reduction
/// (each vector product rounded, then added lane by lane; the scalar tail
/// contracted into FMA), and the engine's loop has the same shape so that
/// it gets the same code. Checked with GCC 12.2 at -O3 -march=native
/// (AVX-512, the Release build), -O2 -march=haswell (AVX2) and -O2 with no
/// -march (SSE2, the ASan+UBSan build); another compiler or version may
/// round differently, which dense_engine_test's memcmp cases then report.
void gemm_a_bt_bias(const float* a, const float* b, const float* bias,
                    float* c, std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace pgmr::nn
