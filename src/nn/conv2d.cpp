#include "nn/conv2d.h"

#include <stdexcept>

#include "nn/forward_engine.h"
#include "nn/gemm.h"
#include "nn/init.h"

namespace pgmr::nn {

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{out_channels, in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels * kernel * kernel}),
      grad_bias_(Shape{out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0) {
    throw std::invalid_argument("Conv2D: invalid geometry");
  }
}

void Conv2D::init(Rng& rng) {
  he_init(weight_, in_c_ * kernel_ * kernel_, rng);
  bias_.fill(0.0F);
}

ConvGeometry Conv2D::geometry(const Shape& in) const {
  if (in.rank() != 4 || in[1] != in_c_) {
    throw std::invalid_argument("Conv2D: bad input shape " + in.to_string());
  }
  ConvGeometry geo;
  geo.in_channels = in_c_;
  geo.in_h = in[2];
  geo.in_w = in[3];
  geo.kernel = kernel_;
  geo.stride = stride_;
  geo.pad = pad_;
  if (geo.out_h() <= 0 || geo.out_w() <= 0) {
    throw std::invalid_argument("Conv2D: kernel larger than padded input");
  }
  return geo;
}

Shape Conv2D::output_shape(const Shape& in) const {
  const ConvGeometry geo = geometry(in);
  return Shape{in[0], out_c_, geo.out_h(), geo.out_w()};
}

Tensor Conv2D::forward(const Tensor& input, bool train) {
  return forward_impl(input, train, nullptr, nullptr);
}

AbftChecksum Conv2D::abft_checksum() const {
  const std::int64_t patch = weight_.shape()[1];
  AbftChecksum golden;
  golden.colsum = Tensor(Shape{patch});
  gemm_col_sums(weight_.data(), out_c_, patch, golden.colsum.data());
  for (std::int64_t oc = 0; oc < out_c_; ++oc) {
    golden.bias_sum += static_cast<double>(bias_[oc]);
  }
  return golden;
}

Tensor Conv2D::forward_abft(const Tensor& input, const AbftChecksum& golden,
                            AbftLayerCheck* check) {
  if (golden.empty()) return forward_impl(input, false, nullptr, nullptr);
  return forward_impl(input, false, &golden, check);
}

AbftChecksum Conv2D::abft_checksum_folded(const Tensor& scale,
                                          const Tensor& shift) const {
  if (scale.numel() != out_c_ || shift.numel() != out_c_) {
    throw std::invalid_argument("Conv2D::abft_checksum_folded: affine size " +
                                std::to_string(scale.numel()) +
                                " != out_channels");
  }
  const std::int64_t patch = weight_.shape()[1];
  AbftChecksum golden;
  golden.form = AbftForm::folded;
  golden.colsum = Tensor(Shape{patch});
  for (std::int64_t k = 0; k < patch; ++k) {
    double acc = 0.0;
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      acc += static_cast<double>(scale[oc]) * weight_[oc * patch + k];
    }
    golden.colsum[k] = static_cast<float>(acc);
  }
  for (std::int64_t oc = 0; oc < out_c_; ++oc) {
    golden.bias_sum += static_cast<double>(scale[oc]) * bias_[oc] +
                       static_cast<double>(shift[oc]);
  }
  return golden;
}

Tensor Conv2D::forward_folded(const Tensor& input, Layer& bn,
                              const AbftChecksum& golden,
                              AbftLayerCheck* check) {
  // The batch's column matrices, [N, patch, out_h*out_w]. The buffer is
  // reused across calls, since its contents are rewritten, not zeroed; one
  // grown past a serving batch by an offline pass is released afterwards.
  constexpr std::size_t kRetainedFloats = std::size_t{1} << 18;
  thread_local std::vector<float> cols;
  const Tensor conv_out = forward_impl(input, false, nullptr, nullptr, &cols);
  Tensor out = bn.forward(conv_out, /*train=*/false);
  abft_verify_folded(cols, out, golden, check);
  if (cols.capacity() > kRetainedFloats) std::vector<float>().swap(cols);
  return out;
}

Tensor Conv2D::forward_impl(const Tensor& input, bool train,
                            const AbftChecksum* golden, AbftLayerCheck* check,
                            std::vector<float>* save_cols) {
  const ConvGeometry geo = geometry(input.shape());
  const std::int64_t batch = input.shape()[0];
  const std::int64_t oh = geo.out_h();
  const std::int64_t ow = geo.out_w();
  const std::int64_t spatial = oh * ow;
  const std::int64_t patch = geo.patch_size();
  const std::int64_t col_size = patch * spatial;

  Tensor out(Shape{batch, out_c_, oh, ow});
  // Where each sample's column matrix lives: in the training cache or the
  // caller's save buffer when they keep it, else in a per-thread scratch
  // buffer reused across calls. A 1x1, stride-1, unpadded conv's column
  // matrix is the image itself and needs no buffer at all.
  std::vector<float>* keep = train ? &cached_cols_ : save_cols;
  thread_local std::vector<float> scratch;
  if (train) cached_in_shape_ = input.shape();
  if (keep != nullptr) {
    keep->resize(static_cast<std::size_t>(batch * col_size));
  } else if (scratch.size() < static_cast<std::size_t>(col_size)) {
    scratch.resize(static_cast<std::size_t>(col_size));
  }
  const bool identity = kernel_ == 1 && stride_ == 1 && pad_ == 0;

  const std::int64_t in_per_sample = in_c_ * geo.in_h * geo.in_w;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* image = input.data() + n * in_per_sample;
    const float* col = image;
    if (keep != nullptr || !identity) {
      float* buf =
          keep != nullptr ? keep->data() + n * col_size : scratch.data();
      im2col_fast(image, geo, buf);
      col = buf;
    }
    // out[oc, y*x] = bias[oc] + W[oc, patch] * col[patch, y*x]
    float* dst = out.data() + n * out_c_ * spatial;
    gemm_bias(weight_.data(), bias_.data(), col, dst, out_c_, patch, spatial);
    if (golden) {
      // Verify against the very column matrix the GEMM consumed; re-running
      // im2col for the check would double the layer's memory traffic.
      abft_verify_cols(col, dst, out_c_, patch, spatial, *golden, check);
    }
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_cols_.empty()) {
    throw std::logic_error("Conv2D::backward before forward(train=true)");
  }
  const ConvGeometry geo = geometry(cached_in_shape_);
  const std::int64_t batch = cached_in_shape_[0];
  const std::int64_t spatial = geo.out_h() * geo.out_w();
  const std::int64_t patch = geo.patch_size();
  const std::int64_t in_per_sample = in_c_ * geo.in_h * geo.in_w;

  Tensor grad_in(cached_in_shape_);
  std::vector<float> grad_col(static_cast<std::size_t>(patch * spatial));

  for (std::int64_t n = 0; n < batch; ++n) {
    const float* dy = grad_output.data() + n * out_c_ * spatial;
    const float* col = cached_cols_.data() + n * patch * spatial;

    // grad_bias[oc] += sum over spatial of dy[oc, :]
    for (std::int64_t oc = 0; oc < out_c_; ++oc) {
      float acc = 0.0F;
      for (std::int64_t s = 0; s < spatial; ++s) acc += dy[oc * spatial + s];
      grad_bias_[oc] += acc;
    }
    // grad_W[oc, patch] += dy[oc, spatial] * col^T[spatial, patch]
    gemm_a_bt(dy, col, grad_weight_.data(), out_c_, spatial, patch);
    // grad_col[patch, spatial] = W^T[patch, oc] * dy[oc, spatial]
    std::fill(grad_col.begin(), grad_col.end(), 0.0F);
    gemm_at_b(weight_.data(), dy, grad_col.data(), patch, out_c_, spatial);
    col2im(grad_col.data(), geo, grad_in.data() + n * in_per_sample);
  }
  return grad_in;
}

CostStats Conv2D::cost(const Shape& in) const {
  const ConvGeometry geo = geometry(in);
  CostStats s;
  const std::int64_t spatial = geo.out_h() * geo.out_w();
  s.macs = in[0] * out_c_ * spatial * geo.patch_size();
  s.param_count = weight_.numel() + bias_.numel();
  s.weight_bytes = s.param_count * 4;
  s.activation_bytes = (in.numel() + in[0] * out_c_ * spatial) * 4;
  // expected[j] over the patch dim plus the actual column sums of the output.
  s.abft_macs = in[0] * spatial * (geo.patch_size() + out_c_);
  return s;
}

void Conv2D::save(BinaryWriter& w) const {
  w.write_i64(in_c_);
  w.write_i64(out_c_);
  w.write_i64(kernel_);
  w.write_i64(stride_);
  w.write_i64(pad_);
  w.write_tensor(weight_);
  w.write_tensor(bias_);
}

std::unique_ptr<Conv2D> Conv2D::load(BinaryReader& r) {
  const std::int64_t in_c = r.read_i64();
  const std::int64_t out_c = r.read_i64();
  const std::int64_t kernel = r.read_i64();
  const std::int64_t stride = r.read_i64();
  const std::int64_t pad = r.read_i64();
  auto layer = std::make_unique<Conv2D>(in_c, out_c, kernel, stride, pad);
  layer->weight_ = r.read_tensor();
  layer->bias_ = r.read_tensor();
  return layer;
}

}  // namespace pgmr::nn
