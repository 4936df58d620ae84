#include "nn/activations.h"

#include <stdexcept>

namespace pgmr::nn {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] < 0.0F) out[i] = 0.0F;
  }
  if (train) cached_input_ = input;
  return out;
}

CostStats ReLU::cost(const Shape& in) const {
  CostStats s = Layer::cost(in);
  s.abft_macs = 2 * in.numel();  // input max scan + output range scan
  return s;
}

AbftChecksum ReLU::abft_checksum() const {
  AbftChecksum g;
  g.form = AbftForm::guard;
  return g;
}

Tensor ReLU::forward_abft(const Tensor& input, const AbftChecksum&,
                          AbftLayerCheck* check) {
  // The guard is the range [0, max(0, input max)] plus finiteness. Every
  // non-NaN output y = max(0, x) lies in that range (+inf included, as the
  // range then reaches it), so the guard fails exactly on a NaN output,
  // which this one pass looks for while it writes the outputs.
  Tensor out(input.shape());
  const float* x = input.data();
  float* y = out.data();
  bool nan = false;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const float v = x[i] < 0.0F ? 0.0F : x[i];
    nan |= v != v;
    y[i] = v;
  }
  check->checked = true;
  if (nan) check->ok = false;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("ReLU::backward before forward(train=true)");
  }
  Tensor grad_in = grad_output;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) {
    if (cached_input_[i] <= 0.0F) grad_in[i] = 0.0F;
  }
  return grad_in;
}

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), seed_(seed), rng_(seed) {
  if (p < 0.0F || p >= 1.0F) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || p_ == 0.0F) return input;
  const float scale = 1.0F / (1.0F - p_);
  mask_ = Tensor(input.shape());
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const bool keep = !rng_.bernoulli(p_);
    mask_[i] = keep ? scale : 0.0F;
    out[i] *= mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) {
    throw std::logic_error("Dropout::backward before forward(train=true)");
  }
  Tensor grad_in = grad_output;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

void Dropout::save(BinaryWriter& w) const {
  w.write_f32(p_);
  w.write_i64(static_cast<std::int64_t>(seed_));
}

std::unique_ptr<Dropout> Dropout::load(BinaryReader& r) {
  const float p = r.read_f32();
  const auto seed = static_cast<std::uint64_t>(r.read_i64());
  return std::make_unique<Dropout>(p, seed);
}

}  // namespace pgmr::nn
