#include "nn/batchnorm.h"

#include <cmath>
#include <stdexcept>

namespace pgmr::nn {
namespace {

// Iterates a rank-2 or rank-4 tensor channel-wise, calling fn(channel,
// flat_index) for every element belonging to that channel.
template <typename Fn>
void for_each_channel_element(const Shape& s, std::int64_t channels, Fn fn) {
  if (s.rank() == 2) {
    for (std::int64_t n = 0; n < s[0]; ++n) {
      for (std::int64_t c = 0; c < channels; ++c) fn(c, n * channels + c);
    }
    return;
  }
  const std::int64_t spatial = s[2] * s[3];
  for (std::int64_t n = 0; n < s[0]; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const std::int64_t base = (n * channels + c) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) fn(c, base + i);
    }
  }
}

}  // namespace

BatchNorm::BatchNorm(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Shape{channels}),
      beta_(Shape{channels}),
      grad_gamma_(Shape{channels}),
      grad_beta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm: invalid channels");
  gamma_.fill(1.0F);
  running_var_.fill(1.0F);
}

Shape BatchNorm::output_shape(const Shape& in) const {
  const bool ok = (in.rank() == 4 && in[1] == channels_) ||
                  (in.rank() == 2 && in[1] == channels_);
  if (!ok) {
    throw std::invalid_argument("BatchNorm(" + std::to_string(channels_) +
                                "): bad input shape " + in.to_string());
  }
  return in;
}

std::int64_t BatchNorm::group_size(const Shape& s) const {
  return s.numel() / channels_;
}

Tensor BatchNorm::forward(const Tensor& input, bool train) {
  const Shape& s = output_shape(input.shape());
  if (!train) return forward_inference(input);
  const std::int64_t group = group_size(s);
  Tensor mean(Shape{channels_});
  Tensor var(Shape{channels_});

  for_each_channel_element(
      s, channels_, [&](std::int64_t c, std::int64_t i) { mean[c] += input[i]; });
  for (std::int64_t c = 0; c < channels_; ++c) {
    mean[c] /= static_cast<float>(group);
  }
  for_each_channel_element(s, channels_, [&](std::int64_t c, std::int64_t i) {
    const float d = input[i] - mean[c];
    var[c] += d * d;
  });
  for (std::int64_t c = 0; c < channels_; ++c) {
    var[c] /= static_cast<float>(group);
    running_mean_[c] = (1.0F - momentum_) * running_mean_[c] + momentum_ * mean[c];
    running_var_[c] = (1.0F - momentum_) * running_var_[c] + momentum_ * var[c];
  }

  Tensor std_dev(Shape{channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    std_dev[c] = std::sqrt(var[c] + eps_);
  }

  Tensor out(s);
  Tensor xhat(s);
  for_each_channel_element(s, channels_, [&](std::int64_t c, std::int64_t i) {
    xhat[i] = (input[i] - mean[c]) / std_dev[c];
    out[i] = gamma_[c] * xhat[i] + beta_[c];
  });

  cached_xhat_ = std::move(xhat);
  cached_std_ = std::move(std_dev);
  cached_in_shape_ = s;
  return out;
}

Tensor BatchNorm::forward_inference(const Tensor& input) const {
  // The training path's arithmetic, (x - mean) / std then gamma * . + beta,
  // on the running statistics, written straight into the output.
  const Shape& s = input.shape();
  const std::int64_t spatial = s.rank() == 4 ? s[2] * s[3] : 1;
  Tensor out(s);
  const float* x = input.data();
  float* y = out.data();
  for (std::int64_t n = 0; n < s[0]; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float mean = running_mean_[c];
      const float std_dev = std::sqrt(running_var_[c] + eps_);
      const float gamma = gamma_[c];
      const float beta = beta_[c];
      const std::int64_t base = (n * channels_ + c) * spatial;
      for (std::int64_t i = base; i < base + spatial; ++i) {
        y[i] = gamma * ((x[i] - mean) / std_dev) + beta;
      }
    }
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  if (cached_xhat_.empty()) {
    throw std::logic_error("BatchNorm::backward before forward(train=true)");
  }
  const Shape& s = cached_in_shape_;
  const auto group = static_cast<float>(group_size(s));

  Tensor sum_dy(Shape{channels_});
  Tensor sum_dy_xhat(Shape{channels_});
  for_each_channel_element(s, channels_, [&](std::int64_t c, std::int64_t i) {
    sum_dy[c] += grad_output[i];
    sum_dy_xhat[c] += grad_output[i] * cached_xhat_[i];
  });
  for (std::int64_t c = 0; c < channels_; ++c) {
    grad_beta_[c] += sum_dy[c];
    grad_gamma_[c] += sum_dy_xhat[c];
  }

  // dx = gamma / std * (dy - mean(dy) - xhat * mean(dy * xhat))
  Tensor grad_in(s);
  for_each_channel_element(s, channels_, [&](std::int64_t c, std::int64_t i) {
    const float term = grad_output[i] - sum_dy[c] / group -
                       cached_xhat_[i] * sum_dy_xhat[c] / group;
    grad_in[i] = gamma_[c] / cached_std_[c] * term;
  });
  return grad_in;
}

void BatchNorm::effective_affine(Tensor* scale, Tensor* shift) const {
  *scale = Tensor(Shape{channels_});
  *shift = Tensor(Shape{channels_});
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float s = gamma_[c] / std::sqrt(running_var_[c] + eps_);
    (*scale)[c] = s;
    (*shift)[c] = beta_[c] - running_mean_[c] * s;
  }
}

ConvEpilogue BatchNorm::eval_epilogue() const {
  ConvEpilogue e;
  e.bn_gamma = gamma_.data();
  e.bn_beta = beta_.data();
  e.bn_mean = running_mean_.data();
  e.bn_var = running_var_.data();
  e.bn_eps = eps_;
  return e;
}

AbftChecksum BatchNorm::abft_checksum() const {
  AbftChecksum golden;
  golden.form = AbftForm::affine;
  Tensor shift;
  effective_affine(&golden.colsum, &shift);
  for (std::int64_t c = 0; c < channels_; ++c) {
    golden.bias_sum += static_cast<double>(shift[c]);
  }
  return golden;
}

Tensor BatchNorm::forward_abft(const Tensor& input, const AbftChecksum& golden,
                               AbftLayerCheck* check) {
  Tensor out = forward(input, /*train=*/false);
  if (golden.form != AbftForm::affine || golden.colsum.empty()) return out;
  const Shape& s = input.shape();
  const std::int64_t spatial = s.rank() == 4 ? s[2] * s[3] : 1;
  abft_verify_affine(input.data(), out.data(), s[0], channels_, spatial,
                     golden, check);
  return out;
}

CostStats BatchNorm::cost(const Shape& in) const {
  CostStats s;
  s.macs = in.numel();  // one multiply-add per element
  s.param_count = 2 * channels_;
  s.weight_bytes = (2 * channels_ + 2 * channels_) * 4;  // affine + running stats
  s.activation_bytes = 2 * in.numel() * 4;
  // affine check: one scale·x multiply-add plus one y accumulate per element
  s.abft_macs = 2 * in.numel();
  return s;
}

void BatchNorm::save(BinaryWriter& w) const {
  w.write_i64(channels_);
  w.write_f32(momentum_);
  w.write_f32(eps_);
  w.write_tensor(gamma_);
  w.write_tensor(beta_);
  w.write_tensor(running_mean_);
  w.write_tensor(running_var_);
}

std::unique_ptr<BatchNorm> BatchNorm::load(BinaryReader& r) {
  const std::int64_t channels = r.read_i64();
  const float momentum = r.read_f32();
  const float eps = r.read_f32();
  auto layer = std::make_unique<BatchNorm>(channels, momentum, eps);
  layer->gamma_ = r.read_tensor();
  layer->beta_ = r.read_tensor();
  layer->running_mean_ = r.read_tensor();
  layer->running_var_ = r.read_tensor();
  return layer;
}

}  // namespace pgmr::nn
