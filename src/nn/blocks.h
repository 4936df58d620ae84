// Composite layers: Sequential, residual blocks (ResNet) and dense blocks
// (DenseNet). These make the zoo's ResNet20/34-lite and DenseNet-lite
// architecturally faithful to the paper's benchmark networks.
#pragma once

#include <memory>
#include <vector>

#include "nn/conv2d.h"
#include "nn/layer.h"

namespace pgmr::nn {

/// Ordered chain of layers; forward applies them left to right.
class Sequential final : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::unique_ptr<Layer>> layers);

  /// Appends a layer; returns *this for fluent construction.
  Sequential& add(std::unique_ptr<Layer> layer);

  std::string kind() const override { return "sequential"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  Shape output_shape(const Shape& in) const override;
  CostStats cost(const Shape& in) const override;
  AbftChecksum abft_checksum() const override;
  Tensor forward_abft(const Tensor& input, const AbftChecksum& golden,
                      AbftLayerCheck* check) override;
  void save(BinaryWriter& w) const override;
  static std::unique_ptr<Sequential> load(BinaryReader& r);

  const std::vector<std::unique_ptr<Layer>>& children() const {
    return layers_;
  }

 private:
  /// Eval forward, verified against `golden` when it is set. Each conv
  /// runs as one Conv2D::forward_fused pass with the BatchNorm and ReLU
  /// that directly follow it; outputs and verdicts are those of running
  /// the layers one by one.
  Tensor infer(const Tensor& input, const AbftChecksum* golden,
               AbftLayerCheck* check);

  std::vector<std::unique_ptr<Layer>> layers_;
};

/// ResNet basic block: out = ReLU(body(x) + shortcut(x)).
/// The shortcut is identity when shapes match, else a 1x1 strided
/// projection convolution (initialized by the caller via projection()).
class ResidualBlock final : public Layer {
 public:
  /// `body` must map [N,Cin,H,W] -> [N,Cout,H/s,W/s]; when Cin != Cout or
  /// s != 1 pass a matching 1x1 `projection` conv, else pass nullptr.
  ResidualBlock(std::unique_ptr<Sequential> body,
                std::unique_ptr<Conv2D> projection);

  std::string kind() const override { return "residual"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  Shape output_shape(const Shape& in) const override;
  CostStats cost(const Shape& in) const override;
  AbftChecksum abft_checksum() const override;
  Tensor forward_abft(const Tensor& input, const AbftChecksum& golden,
                      AbftLayerCheck* check) override;
  void save(BinaryWriter& w) const override;
  static std::unique_ptr<ResidualBlock> load(BinaryReader& r);

  Sequential& body() { return *body_; }
  /// The 1x1 projection shortcut; null for an identity shortcut.
  Conv2D* projection() { return projection_.get(); }

 private:
  /// Eval forward, verified against `golden` when it is set.
  Tensor infer(const Tensor& input, const AbftChecksum* golden,
               AbftLayerCheck* check);

  std::unique_ptr<Sequential> body_;
  std::unique_ptr<Conv2D> projection_;  // nullptr => identity shortcut
  Tensor cached_sum_;                   // pre-ReLU sum, for backward
};

/// DenseNet dense block: each unit sees the channel-concatenation of the
/// block input and all previous unit outputs, and contributes `growth`
/// channels: out channels = in + units * growth.
class DenseBlock final : public Layer {
 public:
  /// `units[i]` must map [N, in + i*growth, H, W] -> [N, growth, H, W].
  DenseBlock(std::vector<std::unique_ptr<Sequential>> units,
             std::int64_t in_channels, std::int64_t growth);

  std::string kind() const override { return "denseblock"; }
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  Shape output_shape(const Shape& in) const override;
  CostStats cost(const Shape& in) const override;
  AbftChecksum abft_checksum() const override;
  Tensor forward_abft(const Tensor& input, const AbftChecksum& golden,
                      AbftLayerCheck* check) override;
  void save(BinaryWriter& w) const override;
  static std::unique_ptr<DenseBlock> load(BinaryReader& r);

  const std::vector<std::unique_ptr<Sequential>>& units() const {
    return units_;
  }

 private:
  std::vector<std::unique_ptr<Sequential>> units_;
  std::int64_t in_channels_, growth_;
};

/// Concatenates two rank-4 tensors along the channel axis.
Tensor concat_channels(const Tensor& a, const Tensor& b);

}  // namespace pgmr::nn
