// Conv2D: square-kernel 2-D convolution lowered to GEMM. Both forwards run
// the one-pass engine (conv_forward in forward_engine.h); training also
// lowers each sample through im2col and keeps the column matrix for
// backward.
#pragma once

#include <vector>

#include "nn/im2col.h"
#include "nn/layer.h"

namespace pgmr::nn {

class BatchNorm;

/// 2-D convolution with bias. Weights are stored [out_c, in_c * k * k].
class Conv2D final : public Layer {
 public:
  /// Builds an uninitialized convolution; call init() or load via network
  /// deserialization before use.
  Conv2D(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad);

  /// He-initializes weights and zeroes biases.
  void init(Rng& rng);

  std::string kind() const override { return "conv2d"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  Shape output_shape(const Shape& in) const override;
  CostStats cost(const Shape& in) const override;
  AbftChecksum abft_checksum() const override;
  Tensor forward_abft(const Tensor& input, const AbftChecksum& golden,
                      AbftLayerCheck* check) override;

  /// Golden checksum with a downstream BatchNorm's eval affine folded in
  /// (AbftForm::folded): colsum[k] = sum_oc scale[oc]·W[oc,k] and
  /// bias_sum = sum_oc (scale[oc]·bias[oc] + shift[oc]). The Huang–Abraham
  /// identity then holds on the *BatchNorm* output, so conv→BN stacks are
  /// verified end to end with no tolerance inflation. `scale`/`shift` come
  /// from BatchNorm::effective_affine and must have out_channels entries.
  AbftChecksum abft_checksum_folded(const Tensor& scale,
                                    const Tensor& shift) const;

  /// Eval forward of this conv with the layers that directly follow it
  /// applied in its store: `bn` (may be null; its width must be
  /// out_channels) and then a ReLU when `relu`. Bit-identical to running
  /// forward(input, false), bn->forward(., false) and ReLU::forward in
  /// turn. With `golden` set, the Huang–Abraham check runs in the same
  /// pass on the stored values before the ReLU and is aggregated into
  /// `check`: a gemm checksum (abft_checksum) verifies the conv output, a
  /// folded one (abft_checksum_folded) bn's output.
  Tensor forward_fused(const Tensor& input, const BatchNorm* bn, bool relu,
                       const AbftChecksum* golden, AbftLayerCheck* check);

  void save(BinaryWriter& w) const override;

  /// Deserializer counterpart of save(); used by load_layer.
  static std::unique_ptr<Conv2D> load(BinaryReader& r);

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  ConvGeometry geometry(const Shape& in) const;

  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  Tensor weight_;       // [out_c, in_c*k*k]
  Tensor bias_;         // [out_c]
  Tensor grad_weight_;
  Tensor grad_bias_;

  // Cached during forward(train=true) for backward.
  Shape cached_in_shape_;
  std::vector<float> cached_cols_;  // per-sample im2col matrices, batch-major
};

}  // namespace pgmr::nn
