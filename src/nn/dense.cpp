#include "nn/dense.h"

#include <stdexcept>

#include "nn/forward_engine.h"
#include "nn/gemm.h"
#include "nn/init.h"

namespace pgmr::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features)
    : in_f_(in_features),
      out_f_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: invalid feature counts");
  }
}

void Dense::init(Rng& rng) {
  he_init(weight_, in_f_, rng);
  bias_.fill(0.0F);
}

Shape Dense::output_shape(const Shape& in) const {
  if (in.rank() != 2 || in[1] != in_f_) {
    throw std::invalid_argument("Dense: bad input shape " + in.to_string());
  }
  return Shape{in[0], out_f_};
}

Tensor Dense::forward(const Tensor& input, bool train) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t batch = input.shape()[0];
  Tensor out(out_shape);
  // out[N, out_f] = bias + x[N, in_f] * W^T where W is [out_f, in_f]
  gemm_a_bt_bias(input.data(), weight_.data(), bias_.data(), out.data(), batch,
                 in_f_, out_f_);
  if (train) cached_input_ = input;
  return out;
}

AbftChecksum Dense::abft_checksum() const {
  AbftChecksum golden;
  golden.colsum = Tensor(Shape{in_f_});
  gemm_col_sums(weight_.data(), out_f_, in_f_, golden.colsum.data());
  for (std::int64_t f = 0; f < out_f_; ++f) {
    golden.bias_sum += static_cast<double>(bias_[f]);
  }
  return golden;
}

Tensor Dense::forward_abft(const Tensor& input, const AbftChecksum& golden,
                           AbftLayerCheck* check) {
  Tensor out = forward(input, /*train=*/false);
  if (!golden.empty()) {
    abft_verify_rows(input.data(), out.data(), input.shape()[0], in_f_, out_f_,
                     golden, check);
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Dense::backward before forward(train=true)");
  }
  const std::int64_t batch = cached_input_.shape()[0];

  // grad_b[f] += sum_n dy[n, f]
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t f = 0; f < out_f_; ++f) {
      grad_bias_[f] += grad_output.at(n, f);
    }
  }
  // grad_W[out_f, in_f] += dy^T[out_f, N] * x[N, in_f]
  gemm_at_b(grad_output.data(), cached_input_.data(), grad_weight_.data(),
            out_f_, batch, in_f_);
  // grad_x[N, in_f] = dy[N, out_f] * W[out_f, in_f]
  Tensor grad_in(cached_input_.shape());
  gemm_accumulate(grad_output.data(), weight_.data(), grad_in.data(), batch,
                  out_f_, in_f_);
  return grad_in;
}

CostStats Dense::cost(const Shape& in) const {
  CostStats s;
  s.macs = in[0] * in_f_ * out_f_;
  s.param_count = weight_.numel() + bias_.numel();
  s.weight_bytes = s.param_count * 4;
  s.activation_bytes = (in.numel() + in[0] * out_f_) * 4;
  // dot(x, colsum) per row plus the actual row sums of the output.
  s.abft_macs = in[0] * (in_f_ + out_f_);
  return s;
}

void Dense::save(BinaryWriter& w) const {
  w.write_i64(in_f_);
  w.write_i64(out_f_);
  w.write_tensor(weight_);
  w.write_tensor(bias_);
}

std::unique_ptr<Dense> Dense::load(BinaryReader& r) {
  const std::int64_t in_f = r.read_i64();
  const std::int64_t out_f = r.read_i64();
  auto layer = std::make_unique<Dense>(in_f, out_f);
  layer->weight_ = r.read_tensor();
  layer->bias_ = r.read_tensor();
  return layer;
}

}  // namespace pgmr::nn
