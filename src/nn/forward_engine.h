// The fast forward engine behind Conv2D and Dense inference.
//
// Every function here has a scalar oracle in gemm.h / im2col.h and returns
// the same bits. The GEMMs keep the oracle's summation: each output element
// is summed over k in ascending order from the same starting value, with a
// multiply-add written as `acc += a * b` exactly where the oracle writes it,
// so the compiler contracts both into FMA (or neither) under the same flags.
// Only independent output elements are computed side by side.
//
// The ISA is picked at compile time (AVX-512F, AVX2 or portable vectors).
// Nothing caches or repacks the weights between calls: the CRC scrubber,
// the golden ABFT checksums and the fault injector act on the live weight
// tensors, and each call reads them afresh.
#pragma once

#include <cstdint>

#include "nn/im2col.h"

namespace pgmr::nn {

/// im2col() without per-element bounds checks: padded border rows and
/// columns are zero-filled in runs, interior runs are copied (stride 1) or
/// gathered (any other stride). Writes every element of `col`.
void im2col_fast(const float* image, const ConvGeometry& geo, float* col);

/// C[M,N] = bias[i] + sum_p A[i,p]·B[p,j] with the bits of filling C's row i
/// with bias[i] and calling gemm_accumulate(a, b, c, m, k, n), including its
/// zero-weight skip: a term with A[i,p] == 0 is never added, so a non-finite
/// B[p,j] behind a zero weight does not reach C and a -0.0 sum keeps its
/// sign. A is row-major [M,K], B row-major [K,N]; C is fully overwritten.
void gemm_bias(const float* a, const float* bias, const float* b, float* c,
               std::int64_t m, std::int64_t k, std::int64_t n);

/// C[M,N] = bias[j] + dot(A[i,:], B[j,:]) with the bits of filling C's
/// column j with bias[j] and calling gemm_a_bt(a, b, c, m, k, n): each dot
/// product is summed from 0.0F over p in ascending order, then added to the
/// bias. B is stored [N,K]; C is fully overwritten.
///
/// Unlike gemm_bias, this identity rests on GCC's vectorizer as well as on
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
