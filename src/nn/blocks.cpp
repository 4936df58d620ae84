#include "nn/blocks.h"

#include <stdexcept>

#include "nn/batchnorm.h"

namespace pgmr::nn {
namespace {

/// True when layers[i] is a Conv2D whose output channels match a BatchNorm
/// at layers[i+1] — the pair a folded checksum covers as one unit.
bool foldable_conv_bn(const std::vector<std::unique_ptr<Layer>>& layers,
                      std::size_t i) {
  if (i + 1 >= layers.size()) return false;
  if (layers[i]->kind() != "conv2d" || layers[i + 1]->kind() != "batchnorm") {
    return false;
  }
  const auto* conv = static_cast<const Conv2D*>(layers[i].get());
  const auto* bn = static_cast<const BatchNorm*>(layers[i + 1].get());
  return conv->out_channels() == bn->channels();
}

// Splits grad of a channel-concatenated tensor back into the two parts.
void split_channels(const Tensor& grad, std::int64_t first_channels,
                    Tensor& grad_a, Tensor& grad_b) {
  const Shape& s = grad.shape();
  const std::int64_t batch = s[0];
  const std::int64_t spatial = s[2] * s[3];
  const std::int64_t c_total = s[1];
  const std::int64_t c_b = c_total - first_channels;
  grad_a = Tensor(Shape{batch, first_channels, s[2], s[3]});
  grad_b = Tensor(Shape{batch, c_b, s[2], s[3]});
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* src = grad.data() + n * c_total * spatial;
    std::copy(src, src + first_channels * spatial,
              grad_a.data() + n * first_channels * spatial);
    std::copy(src + first_channels * spatial, src + c_total * spatial,
              grad_b.data() + n * c_b * spatial);
  }
}

}  // namespace

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  if (sa.rank() != 4 || sb.rank() != 4 || sa[0] != sb[0] || sa[2] != sb[2] ||
      sa[3] != sb[3]) {
    throw std::invalid_argument("concat_channels: incompatible shapes " +
                                sa.to_string() + " and " + sb.to_string());
  }
  const std::int64_t spatial = sa[2] * sa[3];
  Tensor out(Shape{sa[0], sa[1] + sb[1], sa[2], sa[3]});
  for (std::int64_t n = 0; n < sa[0]; ++n) {
    float* dst = out.data() + n * (sa[1] + sb[1]) * spatial;
    const float* pa = a.data() + n * sa[1] * spatial;
    const float* pb = b.data() + n * sb[1] * spatial;
    std::copy(pa, pa + sa[1] * spatial, dst);
    std::copy(pb, pb + sb[1] * spatial, dst + sa[1] * spatial);
  }
  return out;
}

Sequential::Sequential(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

Shape Sequential::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

CostStats Sequential::cost(const Shape& in) const {
  CostStats total;
  Shape s = in;
  for (const auto& layer : layers_) {
    total += layer->cost(s);
    s = layer->output_shape(s);
  }
  return total;
}

AbftChecksum Sequential::abft_checksum() const {
  AbftChecksum golden;
  golden.children.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // conv2d directly followed by batchnorm: emit a folded checksum in the
    // conv slot and leave the BN slot empty; forward_abft verifies the
    // fold on the BN output, so the pair is covered as one identity.
    if (foldable_conv_bn(layers_, i)) {
      const auto* conv = static_cast<const Conv2D*>(layers_[i].get());
      const auto* bn = static_cast<const BatchNorm*>(layers_[i + 1].get());
      Tensor scale, shift;
      bn->effective_affine(&scale, &shift);
      golden.children.push_back(conv->abft_checksum_folded(scale, shift));
      golden.children.push_back(AbftChecksum{});
      ++i;
      continue;
    }
    golden.children.push_back(layers_[i]->abft_checksum());
  }
  return golden;
}

Tensor Sequential::forward_abft(const Tensor& input, const AbftChecksum& golden,
                                AbftLayerCheck* check) {
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const AbftChecksum* g =
        i < golden.children.size() ? &golden.children[i] : nullptr;
    if (g != nullptr && g->form == AbftForm::folded &&
        foldable_conv_bn(layers_, i)) {
      auto* conv = static_cast<Conv2D*>(layers_[i].get());
      x = conv->forward_folded(x, *layers_[i + 1], *g, check);
      ++i;
      continue;
    }
    const bool protect = g != nullptr && !g->empty();
    x = protect ? layers_[i]->forward_abft(x, *g, check)
                : layers_[i]->forward(x, /*train=*/false);
  }
  return x;
}

void Sequential::save(BinaryWriter& w) const {
  w.write_u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& layer : layers_) save_layer(w, *layer);
}

std::unique_ptr<Sequential> Sequential::load(BinaryReader& r) {
  const std::uint32_t count = r.read_u32();
  std::vector<std::unique_ptr<Layer>> layers;
  layers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) layers.push_back(load_layer(r));
  return std::make_unique<Sequential>(std::move(layers));
}

ResidualBlock::ResidualBlock(std::unique_ptr<Sequential> body,
                             std::unique_ptr<Conv2D> projection)
    : body_(std::move(body)), projection_(std::move(projection)) {
  if (!body_) throw std::invalid_argument("ResidualBlock: null body");
}

Tensor ResidualBlock::forward(const Tensor& input, bool train) {
  Tensor main = body_->forward(input, train);
  Tensor shortcut =
      projection_ ? projection_->forward(input, train) : input;
  if (main.shape() != shortcut.shape()) {
    throw std::invalid_argument(
        "ResidualBlock: body/shortcut shape mismatch " +
        main.shape().to_string() + " vs " + shortcut.shape().to_string());
  }
  main += shortcut;
  if (train) cached_sum_ = main;
  // Post-add ReLU, as in the original ResNet basic block.
  for (std::int64_t i = 0; i < main.numel(); ++i) {
    if (main[i] < 0.0F) main[i] = 0.0F;
  }
  return main;
}

AbftChecksum ResidualBlock::abft_checksum() const {
  AbftChecksum golden;
  golden.children.push_back(body_->abft_checksum());
  golden.children.push_back(projection_ ? projection_->abft_checksum()
                                        : AbftChecksum{});
  return golden;
}

Tensor ResidualBlock::forward_abft(const Tensor& input,
                                   const AbftChecksum& golden,
                                   AbftLayerCheck* check) {
  const AbftChecksum* body_golden =
      golden.children.size() > 0 && !golden.children[0].empty()
          ? &golden.children[0]
          : nullptr;
  const AbftChecksum* proj_golden =
      golden.children.size() > 1 && !golden.children[1].empty()
          ? &golden.children[1]
          : nullptr;
  Tensor main = body_golden ? body_->forward_abft(input, *body_golden, check)
                            : body_->forward(input, false);
  Tensor shortcut =
      projection_ ? (proj_golden
                         ? projection_->forward_abft(input, *proj_golden, check)
                         : projection_->forward(input, false))
                  : input;
  if (main.shape() != shortcut.shape()) {
    throw std::invalid_argument(
        "ResidualBlock: body/shortcut shape mismatch " +
        main.shape().to_string() + " vs " + shortcut.shape().to_string());
  }
  main += shortcut;
  for (std::int64_t i = 0; i < main.numel(); ++i) {
    if (main[i] < 0.0F) main[i] = 0.0F;
  }
  // The add + post-add ReLU are not GEMMs; a finiteness guard keeps a
  // corrupted shortcut from passing Inf/NaN downstream silently.
  abft_guard_finite(main.data(), main.numel(), check);
  return main;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  if (cached_sum_.empty()) {
    throw std::logic_error(
        "ResidualBlock::backward before forward(train=true)");
  }
  Tensor grad_sum = grad_output;
  for (std::int64_t i = 0; i < grad_sum.numel(); ++i) {
    if (cached_sum_[i] <= 0.0F) grad_sum[i] = 0.0F;
  }
  Tensor grad_in = body_->backward(grad_sum);
  if (projection_) {
    grad_in += projection_->backward(grad_sum);
  } else {
    grad_in += grad_sum;
  }
  return grad_in;
}

std::vector<Tensor*> ResidualBlock::params() {
  std::vector<Tensor*> out = body_->params();
  if (projection_) {
    for (Tensor* p : projection_->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> ResidualBlock::grads() {
  std::vector<Tensor*> out = body_->grads();
  if (projection_) {
    for (Tensor* g : projection_->grads()) out.push_back(g);
  }
  return out;
}

Shape ResidualBlock::output_shape(const Shape& in) const {
  return body_->output_shape(in);
}

CostStats ResidualBlock::cost(const Shape& in) const {
  CostStats total = body_->cost(in);
  if (projection_) total += projection_->cost(in);
  return total;
}

void ResidualBlock::save(BinaryWriter& w) const {
  body_->save(w);
  w.write_u32(projection_ ? 1 : 0);
  if (projection_) projection_->save(w);
}

std::unique_ptr<ResidualBlock> ResidualBlock::load(BinaryReader& r) {
  auto body = Sequential::load(r);
  std::unique_ptr<Conv2D> projection;
  if (r.read_u32() != 0) projection = Conv2D::load(r);
  return std::make_unique<ResidualBlock>(std::move(body),
                                         std::move(projection));
}

DenseBlock::DenseBlock(std::vector<std::unique_ptr<Sequential>> units,
                       std::int64_t in_channels, std::int64_t growth)
    : units_(std::move(units)), in_channels_(in_channels), growth_(growth) {
  if (units_.empty()) throw std::invalid_argument("DenseBlock: no units");
  if (in_channels <= 0 || growth <= 0) {
    throw std::invalid_argument("DenseBlock: invalid channel config");
  }
}

Tensor DenseBlock::forward(const Tensor& input, bool train) {
  Tensor features = input;
  for (auto& unit : units_) {
    Tensor contribution = unit->forward(features, train);
    features = concat_channels(features, contribution);
  }
  return features;
}

AbftChecksum DenseBlock::abft_checksum() const {
  AbftChecksum golden;
  golden.children.reserve(units_.size());
  for (const auto& unit : units_) {
    golden.children.push_back(unit->abft_checksum());
  }
  return golden;
}

Tensor DenseBlock::forward_abft(const Tensor& input, const AbftChecksum& golden,
                                AbftLayerCheck* check) {
  Tensor features = input;
  for (std::size_t i = 0; i < units_.size(); ++i) {
    const bool protect =
        i < golden.children.size() && !golden.children[i].empty();
    Tensor contribution =
        protect ? units_[i]->forward_abft(features, golden.children[i], check)
                : units_[i]->forward(features, false);
    features = concat_channels(features, contribution);
  }
  return features;
}

Tensor DenseBlock::backward(const Tensor& grad_output) {
  Tensor grad_features = grad_output;
  for (auto it = units_.rbegin(); it != units_.rend(); ++it) {
    const std::int64_t prev_channels = grad_features.shape()[1] - growth_;
    Tensor grad_prev, grad_contribution;
    split_channels(grad_features, prev_channels, grad_prev, grad_contribution);
    grad_prev += (*it)->backward(grad_contribution);
    grad_features = std::move(grad_prev);
  }
  return grad_features;
}

std::vector<Tensor*> DenseBlock::params() {
  std::vector<Tensor*> out;
  for (auto& unit : units_) {
    for (Tensor* p : unit->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> DenseBlock::grads() {
  std::vector<Tensor*> out;
  for (auto& unit : units_) {
    for (Tensor* g : unit->grads()) out.push_back(g);
  }
  return out;
}

Shape DenseBlock::output_shape(const Shape& in) const {
  if (in.rank() != 4 || in[1] != in_channels_) {
    throw std::invalid_argument("DenseBlock: bad input shape " +
                                in.to_string());
  }
  return Shape{in[0],
               in_channels_ + static_cast<std::int64_t>(units_.size()) * growth_,
               in[2], in[3]};
}

CostStats DenseBlock::cost(const Shape& in) const {
  CostStats total;
  Shape s = in;
  for (const auto& unit : units_) {
    total += unit->cost(s);
    s = Shape{s[0], s[1] + growth_, s[2], s[3]};
  }
  return total;
}

void DenseBlock::save(BinaryWriter& w) const {
  w.write_i64(in_channels_);
  w.write_i64(growth_);
  w.write_u32(static_cast<std::uint32_t>(units_.size()));
  for (const auto& unit : units_) unit->save(w);
}

std::unique_ptr<DenseBlock> DenseBlock::load(BinaryReader& r) {
  const std::int64_t in_channels = r.read_i64();
  const std::int64_t growth = r.read_i64();
  const std::uint32_t count = r.read_u32();
  std::vector<std::unique_ptr<Sequential>> units;
  units.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) units.push_back(Sequential::load(r));
  return std::make_unique<DenseBlock>(std::move(units), in_channels, growth);
}

}  // namespace pgmr::nn
