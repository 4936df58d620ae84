// Algorithm-based fault tolerance (ABFT) for GEMM-backed layers.
//
// Every Conv2D and Dense forward pass is a GEMM C = A·B (+bias). The
// classic Huang–Abraham check verifies e^T·C = (e^T·A)·B: capture the
// column sums of the weight matrix once, when the weights are known good,
// and at inference compare the output's sums against the prediction those
// golden sums make from the layer *input*. A stored-weight corruption (a
// high-exponent bit flip from the fault injector, a DRAM upset) breaks the
// identity by many orders of magnitude.
//
// For a convolution the check runs inside the GEMM (conv_forward in
// forward_engine.h): the golden column sums are one more row of the first
// register tile band, sharing its B loads, and the output's column sums
// are taken in the tile store. Its cost is that one extra row, in double,
// plus a double add per output: no second GEMM and no second pass over
// the layer's input or output. abft_verify_cols below is the same
// arithmetic as a separate pass, kept as the oracle the engine is tested
// against. Dense layers and eval BatchNorms are verified by separate passes
// (abft_verify_rows, abft_verify_affine); activations and pooling by range
// guards.
//
// This header carries the protection-level vocabulary shared by quant
// (QuantizedNetwork), mr (per-member protection) and perf (cost model).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace pgmr::nn {

/// How much of a network's datapath is ABFT-verified per forward pass.
enum class Protection {
  off,       ///< no checks (bit-identical fast path)
  final_fc,  ///< final Dense layer only (the pre-PR-3 behaviour)
  full,      ///< every Conv2D and Dense layer
};

const char* to_string(Protection p);

/// What identity a golden checksum encodes — i.e. how forward_abft must
/// verify it.
enum class AbftForm {
  gemm,    ///< Huang–Abraham column sums over a GEMM weight matrix
  affine,  ///< per-channel eval-time affine (BatchNorm): colsum = scale,
           ///< bias_sum = sum of shifts; verified output-vs-input
  folded,  ///< conv column sums pre-multiplied by the downstream BatchNorm
           ///< scale; verified against the *BN* output so the identity
           ///< survives conv→BN without tolerance inflation
  guard,   ///< no golden tensor: output range/finiteness envelope only
};

/// Golden weight checksum for one layer, captured while the weights are
/// known good. For a GEMM layer, `colsum[k]` sums the weight matrix over
/// its output dimension (Dense: sum_o W[o,k]; Conv2D: sum_oc W[oc,k]) and
/// `bias_sum` sums the bias vector. The affine and folded forms reuse the
/// same fields (see AbftForm). Composite layers (Sequential, ResidualBlock,
/// DenseBlock) carry one child checksum per inner layer instead, so
/// full-network protection reaches nested convolutions.
struct AbftChecksum {
  AbftForm form = AbftForm::gemm;
  Tensor colsum;
  double bias_sum = 0.0;
  std::vector<AbftChecksum> children;

  bool empty() const {
    if (form == AbftForm::guard) return false;  // guards carry no tensor
    if (!colsum.empty()) return false;
    for (const AbftChecksum& c : children) {
      if (!c.empty()) return false;
    }
    return true;
  }
};

/// Outcome of verifying one layer's forward GEMM.
struct AbftLayerCheck {
  bool checked = false;        ///< a verification actually ran
  bool ok = true;              ///< false on mismatch (or non-finite sums)
  float max_rel_error = 0.0F;  ///< worst |actual-expected|/(1+|expected|)
};

/// Relative tolerance for the checks: float GEMM accumulation over these
/// fan-ins stays orders of magnitude below it, while exponent-bit weight
/// corruption overshoots it by many orders.
inline constexpr float kAbftTolerance = 2e-3F;

/// Row-sum verification for C[M,N] = A[M,K]·B^T (+bias), the Dense layout:
/// expected row sum r is dot(A[r,:], golden.colsum) + golden.bias_sum.
/// Aggregates into `check` (checked set true, ok sticky-false).
void abft_verify_rows(const float* a, const float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n,
                      const AbftChecksum& golden, AbftLayerCheck* check);

/// Column-sum verification for C[M,N] = A[M,K]·B[K,N] (+bias per row of C),
/// the im2col Conv2D layout: expected column sum j is
/// sum_k golden.colsum[k]·B[k,j] + golden.bias_sum. Also verifies the
/// folded conv→BN form when `c` points at the BatchNorm output (the folded
/// colsum/bias_sum already absorb the BN affine). The oracle of the check
/// conv_forward runs inside its tiles (forward_engine.h).
void abft_verify_cols(const float* b, const float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n,
                      const AbftChecksum& golden, AbftLayerCheck* check);

/// Folds one column's (actual, expected) sums into `check`: ok goes
/// sticky-false unless |actual-expected|/(1+|expected|) <= kAbftTolerance
/// (so a NaN or Inf fails), and a finite ratio raises max_rel_error. Does
/// not set `checked`.
void abft_fold(double actual, double expected, AbftLayerCheck* check);

/// Per-channel affine verification for eval-mode BatchNorm,
/// y[n,c,i] = scale[c]·x[n,c,i] + shift[c]: for every (sample, spatial
/// position) the channel sum of y must equal
/// sum_c golden.colsum[c]·x[n,c,i] + golden.bias_sum, where
/// golden.colsum = scale and golden.bias_sum = sum_c shift[c]. Detects
/// gamma/beta *and* running-statistic corruption (the golden scale bakes in
/// the blessed statistics). `spatial` is 1 for rank-2 input.
void abft_verify_affine(const float* x, const float* y, std::int64_t batch,
                        std::int64_t channels, std::int64_t spatial,
                        const AbftChecksum& golden, AbftLayerCheck* check);

/// Range + finiteness guard for non-GEMM layers (pooling, activations):
/// every y[i] must be finite and inside [lo, hi] up to a small relative
/// slack for float rounding. Marks `check` checked; ok goes sticky-false
/// on the first violation.
void abft_guard_range(const float* y, std::int64_t n, float lo, float hi,
                      AbftLayerCheck* check);

/// Finiteness-only guard: every y[i] must be finite.
void abft_guard_finite(const float* y, std::int64_t n, AbftLayerCheck* check);

/// Min/max over `n` floats for building a range-guard envelope. NaNs are
/// skipped here — one that propagates to the output still fails the guard.
void abft_minmax(const float* x, std::int64_t n, float* lo, float* hi);

}  // namespace pgmr::nn
