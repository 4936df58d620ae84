// BatchNorm: per-channel batch normalization (rank-4) or per-feature (rank-2).
#pragma once

#include "nn/forward_engine.h"
#include "nn/layer.h"

namespace pgmr::nn {

/// Batch normalization with learnable affine (gamma, beta) and running
/// statistics for inference. For rank-4 input normalizes per channel; for
/// rank-2 per feature.
class BatchNorm final : public Layer {
 public:
  /// `channels` is the normalized axis size; `momentum` weights the running
  /// statistics update (new = (1-m)*old + m*batch).
  explicit BatchNorm(std::int64_t channels, float momentum = 0.1F,
                     float eps = 1e-5F);

  std::string kind() const override { return "batchnorm"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&grad_gamma_, &grad_beta_}; }
  Shape output_shape(const Shape& in) const override;
  CostStats cost(const Shape& in) const override;

  std::int64_t channels() const { return channels_; }

  /// Eval-time effective affine: forward(x, train=false) computes
  /// out = scale[c]·x + shift[c] with scale = gamma/sqrt(running_var+eps)
  /// and shift = beta − running_mean·scale. Adjacent convolutions fold
  /// this into their ABFT column sums (see Conv2D::abft_checksum_folded).
  void effective_affine(Tensor* scale, Tensor* shift) const;

  /// forward(x, false)'s own per-channel terms, for a preceding conv's
  /// store to apply (Conv2D::forward_fused); `relu` is left false.
  ConvEpilogue eval_epilogue() const;

  /// Golden affine checksum (AbftForm::affine): colsum = scale,
  /// bias_sum = sum of shifts. Standalone protection for BN layers that
  /// are not folded into an adjacent convolution (e.g. DenseNet's
  /// BN→ReLU→conv ordering).
  AbftChecksum abft_checksum() const override;
  Tensor forward_abft(const Tensor& input, const AbftChecksum& golden,
                      AbftLayerCheck* check) override;

  void save(BinaryWriter& w) const override;
  static std::unique_ptr<BatchNorm> load(BinaryReader& r);

 private:
  /// Number of elements normalized together per channel for shape `s`.
  std::int64_t group_size(const Shape& s) const;
  /// forward(x, train=false): normalizes with the running statistics and
  /// keeps no backward cache.
  Tensor forward_inference(const Tensor& input) const;

  std::int64_t channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_;
  Tensor grad_gamma_, grad_beta_;
  Tensor running_mean_, running_var_;

  // Forward cache for backward.
  Tensor cached_xhat_;
  Tensor cached_std_;  // per-channel sqrt(var + eps)
  Shape cached_in_shape_;
};

}  // namespace pgmr::nn
