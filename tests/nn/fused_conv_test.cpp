// The one-pass protected conv against the layer-by-layer composition it
// replaced, bit for bit: outputs by memcmp, and the ABFT verdicts
// (AbftLayerCheck, and AbftCheck's ok / failed_layer / max_rel_error) by
// value and bits.
//
// The oracle runs every conv as per-sample im2col + gemm_accumulate, a
// folded or gemm check as abft_verify_cols on the stored values, then
// BatchNorm::forward and ReLU::forward as separate layers, with every
// other layer's own forward / forward_abft, the ReLU's range guard and
// the residual block's add, ReLU and finiteness guard as separate passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "nn/abft.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/gemm.h"
#include "nn/im2col.h"
#include "quant/quantized_network.h"
#include "tensor/random.h"
#include "zoo/models.h"

namespace pgmr::nn {
namespace {

::testing::AssertionResult same_bits(const float* a, const float* b,
                                     std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "element " << i << " of " << n
                                           << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_tensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << a.shape().to_string() << " vs "
                                         << b.shape().to_string();
  }
  return same_bits(a.data(), b.data(), a.numel());
}

::testing::AssertionResult same_check(const AbftLayerCheck& a,
                                      const AbftLayerCheck& b) {
  if (a.checked != b.checked || a.ok != b.ok ||
      std::memcmp(&a.max_rel_error, &b.max_rel_error, sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "checked " << a.checked << "/" << b.checked << " ok " << a.ok
           << "/" << b.ok << " max_rel_error " << a.max_rel_error << "/"
           << b.max_rel_error;
  }
  return ::testing::AssertionSuccess();
}

/// One NaN bit pattern, made at run time (see conv_engine_test).
float runtime_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

ConvGeometry geometry_of(const Conv2D& conv, const Shape& in) {
  ConvGeometry geo;
  geo.in_channels = conv.in_channels();
  geo.in_h = in[2];
  geo.in_w = in[3];
  geo.kernel = conv.kernel();
  geo.stride = conv.stride();
  geo.pad = conv.pad();
  return geo;
}

/// The conv alone: per sample, im2col, each output row filled with its
/// bias, gemm_accumulate.
Tensor oracle_conv(Conv2D& conv, const Tensor& input) {
  const ConvGeometry geo = geometry_of(conv, input.shape());
  const std::int64_t batch = input.shape()[0];
  const std::int64_t out_c = conv.out_channels();
  const std::int64_t spatial = geo.out_h() * geo.out_w();
  const std::int64_t patch = geo.patch_size();
  const std::int64_t in_size = geo.in_channels * geo.in_h * geo.in_w;
  const Tensor& weight = *conv.params()[0];
  const Tensor& bias = *conv.params()[1];
  Tensor out(Shape{batch, out_c, geo.out_h(), geo.out_w()});
  std::vector<float> col(static_cast<std::size_t>(patch * spatial));
  for (std::int64_t n = 0; n < batch; ++n) {
    im2col(input.data() + n * in_size, geo, col.data());
    float* dst = out.data() + n * out_c * spatial;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        dst[oc * spatial + s] = bias[oc];
      }
    }
    gemm_accumulate(weight.data(), col.data(), dst, out_c, patch, spatial);
  }
  return out;
}

/// abft_verify_cols per sample, against the column matrices of `input`.
void oracle_verify(Conv2D& conv, const Tensor& input, const Tensor& stored,
                   const AbftChecksum& golden, AbftLayerCheck* check) {
  const ConvGeometry geo = geometry_of(conv, input.shape());
  const std::int64_t spatial = geo.out_h() * geo.out_w();
  const std::int64_t patch = geo.patch_size();
  const std::int64_t in_size = geo.in_channels * geo.in_h * geo.in_w;
  const std::int64_t out_c = conv.out_channels();
  std::vector<float> col(static_cast<std::size_t>(patch * spatial));
  for (std::int64_t n = 0; n < input.shape()[0]; ++n) {
    im2col(input.data() + n * in_size, geo, col.data());
    abft_verify_cols(col.data(), stored.data() + n * out_c * spatial, out_c,
                     patch, spatial, golden, check);
  }
}

/// forward_fused's oracle: conv, BatchNorm, the check, ReLU.
Tensor oracle_fused(Conv2D& conv, const Tensor& input, BatchNorm* bn,
                    bool relu, const AbftChecksum* golden,
                    AbftLayerCheck* check) {
  Tensor y = oracle_conv(conv, input);
  if (bn != nullptr) y = bn->forward(y, /*train=*/false);
  if (golden != nullptr) oracle_verify(conv, input, y, *golden, check);
  if (relu) y = ReLU().forward(y, /*train=*/false);
  return y;
}

/// Running statistics and affine terms away from the defaults, so the
/// BatchNorm epilogue does real work.
void randomize(BatchNorm& bn, std::int64_t channels, Rng& rng) {
  Tensor x(Shape{3, channels, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.uniform(-1.5F, 2.5F);
  }
  bn.forward(x, /*train=*/true);
  for (Tensor* p : bn.params()) {
    for (std::int64_t c = 0; c < channels; ++c) {
      (*p)[c] = rng.uniform(-2.0F, 2.0F);
    }
  }
}

Tensor random_input(std::int64_t batch, std::int64_t c, std::int64_t h,
                    std::int64_t w, Rng& rng) {
  Tensor x(Shape{batch, c, h, w});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  return x;
}

struct ConvShape {
  std::string name;
  std::int64_t in_c, out_c, kernel, stride, pad, in_h, in_w;
};

void PrintTo(const ConvShape& c, std::ostream* os) { *os << c.name; }

// Every conv of the zoo (src/zoo/models.cpp) at its served input size,
// stride 1 and 2, plus a stride-3 and a "valid" conv for the run packer.
const std::vector<ConvShape>& zoo_shapes() {
  static const std::vector<ConvShape> all = {
      {"lenet5_c1", 1, 6, 5, 1, 2, 16, 16},
      {"lenet5_c2", 6, 12, 3, 1, 1, 8, 8},
      {"convnet_c1", 3, 8, 3, 1, 1, 16, 16},
      {"convnet_c2", 8, 16, 3, 1, 1, 8, 8},
      {"resnet20_stem", 3, 6, 3, 1, 1, 16, 16},
      {"resnet20_s1", 6, 6, 3, 1, 1, 16, 16},
      {"resnet20_s2_entry", 6, 12, 3, 2, 1, 16, 16},
      {"resnet20_s2", 12, 12, 3, 1, 1, 8, 8},
      {"resnet20_s2_proj", 6, 12, 1, 2, 0, 16, 16},
      {"resnet20_s3_entry", 12, 24, 3, 2, 1, 8, 8},
      {"resnet20_s3", 24, 24, 3, 1, 1, 4, 4},
      {"resnet20_s3_proj", 12, 24, 1, 2, 0, 8, 8},
      {"densenet40_b1u1", 8, 6, 3, 1, 1, 16, 16},
      {"densenet40_b1u3", 20, 6, 3, 1, 1, 16, 16},
      {"densenet40_t1", 26, 13, 1, 1, 0, 16, 16},
      {"densenet40_b2u2", 19, 6, 3, 1, 1, 8, 8},
      {"densenet40_t2", 31, 15, 1, 1, 0, 8, 8},
      {"densenet40_b3u3", 27, 6, 3, 1, 1, 4, 4},
      {"alexnet_c1", 3, 8, 5, 1, 2, 24, 24},
      {"alexnet_c3", 16, 24, 3, 1, 1, 6, 6},
      {"resnet34_s2_entry", 6, 12, 3, 2, 1, 24, 24},
      {"stride3_ragged", 2, 5, 3, 3, 1, 10, 17},
      {"valid_ragged", 3, 7, 3, 1, 0, 9, 11},
  };
  return all;
}

class FusedConvTest : public ::testing::TestWithParam<ConvShape> {};

TEST_P(FusedConvTest, MatchesTheLayerByLayerOracle) {
  // Batch 1-5; the conv alone, with BatchNorm, with ReLU, with both; and
  // unchecked (protection off / final_fc) or checked (full: a gemm
  // checksum for the conv alone, a folded one through the BatchNorm).
  const ConvShape& c = GetParam();
  Rng rng(41);
  Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
  conv.init(rng);
  for (std::int64_t oc = 0; oc < c.out_c; ++oc) {
    (*conv.params()[1])[oc] = rng.uniform(-0.5F, 0.5F);
  }
  BatchNorm bn(c.out_c);
  randomize(bn, c.out_c, rng);
  Tensor scale;
  Tensor shift;
  bn.effective_affine(&scale, &shift);
  const AbftChecksum gemm = conv.abft_checksum();
  const AbftChecksum folded = conv.abft_checksum_folded(scale, shift);
  for (std::int64_t batch = 1; batch <= 5; ++batch) {
    const Tensor input = random_input(batch, c.in_c, c.in_h, c.in_w, rng);
    for (const bool with_bn : {false, true}) {
      for (const bool relu : {false, true}) {
        for (const bool checked : {false, true}) {
          BatchNorm* b = with_bn ? &bn : nullptr;
          const AbftChecksum* g =
              checked ? (with_bn ? &folded : &gemm) : nullptr;
          AbftLayerCheck want_check;
          AbftLayerCheck got_check;
          const Tensor want =
              oracle_fused(conv, input, b, relu, g, &want_check);
          const Tensor got = conv.forward_fused(input, b, relu, g, &got_check);
          const std::string what = "batch " + std::to_string(batch) +
                                   " bn " + std::to_string(with_bn) +
                                   " relu " + std::to_string(relu) +
                                   " checked " + std::to_string(checked);
          ASSERT_TRUE(same_tensor(got, want)) << what;
          ASSERT_TRUE(same_check(got_check, want_check)) << what;
          EXPECT_EQ(got_check.ok, true) << what;
        }
      }
    }
  }
}

TEST_P(FusedConvTest, PoisonedWeightsAndActivationsMatchTheOracle) {
  // Zero and -0.0 weights, a dead output row with a -0.0 bias, NaN / inf /
  // signed zeros in the image: the cases where skipping a term, or the
  // order of the double sums, would show in the bits.
  const ConvShape& c = GetParam();
  Rng rng(43);
  Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
  conv.init(rng);
  Tensor& weight = *conv.params()[0];
  Tensor& bias = *conv.params()[1];
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    if (rng.bernoulli(0.2)) weight[i] = rng.bernoulli(0.5) ? 0.0F : -0.0F;
  }
  const std::int64_t patch = weight.shape()[1];
  const std::int64_t dead = c.out_c / 2;
  for (std::int64_t p = 0; p < patch; ++p) weight[dead * patch + p] = 0.0F;
  bias[dead] = -0.0F;
  BatchNorm bn(c.out_c);
  randomize(bn, c.out_c, rng);
  Tensor scale;
  Tensor shift;
  bn.effective_affine(&scale, &shift);
  const AbftChecksum folded = conv.abft_checksum_folded(scale, shift);
  const AbftChecksum gemm = conv.abft_checksum();
  const float specials[] = {runtime_nan(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0F,
                            0.0F};
  for (const std::int64_t batch : {1, 3}) {
    Tensor input = random_input(batch, c.in_c, c.in_h, c.in_w, rng);
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      if (rng.bernoulli(0.03)) input[i] = specials[rng.randint(0, 4)];
    }
    for (const bool with_bn : {false, true}) {
      BatchNorm* b = with_bn ? &bn : nullptr;
      const AbftChecksum* g = with_bn ? &folded : &gemm;
      AbftLayerCheck want_check;
      AbftLayerCheck got_check;
      const Tensor want = oracle_fused(conv, input, b, true, g, &want_check);
      const Tensor got = conv.forward_fused(input, b, true, g, &got_check);
      ASSERT_TRUE(same_tensor(got, want)) << "batch " << batch;
      ASSERT_TRUE(same_check(got_check, want_check)) << "batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ZooShapes, FusedConvTest,
                         ::testing::ValuesIn(zoo_shapes()),
                         ::testing::PrintToStringParamName());

TEST(FusedConvNanTest, NanBehindZeroWeightsStaysOutOfOutputAndExpected) {
  // Every weight of input channel 2 is zero, so its patch rows have zero
  // column sums too: NaNs there reach neither the output nor expected[j].
  Rng rng(47);
  Conv2D conv(4, 6, 3, 1, 1);
  conv.init(rng);
  Tensor& weight = *conv.params()[0];
  for (std::int64_t oc = 0; oc < 6; ++oc) {
    for (std::int64_t p = 2 * 9; p < 3 * 9; ++p) weight[oc * 36 + p] = 0.0F;
  }
  BatchNorm bn(6);
  randomize(bn, 6, rng);
  Tensor scale;
  Tensor shift;
  bn.effective_affine(&scale, &shift);
  const AbftChecksum golden = conv.abft_checksum_folded(scale, shift);
  for (std::int64_t p = 2 * 9; p < 3 * 9; ++p) {
    ASSERT_EQ(golden.colsum[p], 0.0F);
  }
  Tensor input = random_input(2, 4, 8, 8, rng);
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t i = 0; i < 64; i += 5) {
      input[(n * 4 + 2) * 64 + i] = runtime_nan();
    }
  }
  AbftLayerCheck want_check;
  AbftLayerCheck got_check;
  const Tensor want =
      oracle_fused(conv, input, &bn, true, &golden, &want_check);
  const Tensor got = conv.forward_fused(input, &bn, true, &golden, &got_check);
  EXPECT_TRUE(same_tensor(got, want));
  EXPECT_TRUE(same_check(got_check, want_check));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(got[i])) << i;
  }
  EXPECT_TRUE(got_check.checked);
  EXPECT_TRUE(got_check.ok);
}

TEST(FusedConvNanTest, NanBehindZeroColumnSumStaysOutOfExpected) {
  // Live weights, but a golden checksum whose column sums are zero for
  // input channel 1: the NaN reaches the output and actual[j], never
  // expected[j], so the check fails on the output alone, as the oracle's.
  Rng rng(53);
  Conv2D conv(3, 6, 3, 1, 1);
  conv.init(rng);
  AbftChecksum golden = conv.abft_checksum();
  for (std::int64_t p = 9; p < 18; ++p) golden.colsum[p] = 0.0F;
  Tensor input = random_input(3, 3, 8, 8, rng);
  input[64 + 27] = runtime_nan();
  AbftLayerCheck want_check;
  AbftLayerCheck got_check;
  const Tensor want =
      oracle_fused(conv, input, nullptr, false, &golden, &want_check);
  const Tensor got = conv.forward_fused(input, nullptr, false, &golden,
                                        &got_check);
  EXPECT_TRUE(same_tensor(got, want));
  EXPECT_TRUE(same_check(got_check, want_check));
  EXPECT_FALSE(got_check.ok);
  // The sample without the NaN is intact on its own.
  AbftLayerCheck clean;
  conv.forward_fused(Tensor(Shape{1, 3, 8, 8}), nullptr, false, &golden,
                     &clean);
  EXPECT_TRUE(clean.ok);
}

TEST(ReluGuardTest, OnePassMatchesTheRangeGuard) {
  // ReLU::forward_abft's single NaN scan against the envelope it stands
  // for, on inputs with NaN, +-inf and signed zeros.
  Rng rng(59);
  const float specials[] = {runtime_nan(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0F,
                            0.0F};
  for (int trial = 0; trial < 200; ++trial) {
    Tensor x(Shape{2, 3, 4, 4});
    const double p_special = trial % 4 == 0 ? 0.0 : 0.02 * (trial % 5);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = rng.bernoulli(p_special) ? specials[rng.randint(0, 4)]
                                      : rng.uniform(-3, 3);
    }
    float lo = 0.0F;
    float hi = 0.0F;
    abft_minmax(x.data(), x.numel(), &lo, &hi);
    const Tensor want = ReLU().forward(x, /*train=*/false);
    AbftLayerCheck want_check;
    abft_guard_range(want.data(), want.numel(), 0.0F, std::max(0.0F, hi),
                     &want_check);
    AbftLayerCheck got_check;
    const Tensor got = ReLU().forward_abft(x, AbftChecksum{}, &got_check);
    ASSERT_TRUE(same_tensor(got, want)) << "trial " << trial;
    ASSERT_TRUE(same_check(got_check, want_check)) << "trial " << trial;
  }
}

// ---- whole networks --------------------------------------------------------

/// The layer-by-layer composition, as Sequential, ResidualBlock and
/// DenseBlock ran it before the fused pass, with the scalar conv.
Tensor oracle_layer(Layer& layer, const Tensor& x, const AbftChecksum* g,
                    AbftLayerCheck* check);

const AbftChecksum* child(const AbftChecksum* g, std::size_t i) {
  if (g == nullptr || i >= g->children.size() || g->children[i].empty()) {
    return nullptr;
  }
  return &g->children[i];
}

Tensor oracle_sequential(Sequential& seq, const Tensor& input,
                         const AbftChecksum* golden, AbftLayerCheck* check) {
  const auto& layers = seq.children();
  Tensor x = input;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const AbftChecksum* g = child(golden, i);
    if (g != nullptr && g->form == AbftForm::folded &&
        layers[i]->kind() == "conv2d" && i + 1 < layers.size() &&
        layers[i + 1]->kind() == "batchnorm") {
      auto& conv = static_cast<Conv2D&>(*layers[i]);
      auto& bn = static_cast<BatchNorm&>(*layers[i + 1]);
      x = oracle_fused(conv, x, &bn, false, g, check);
      ++i;
      continue;
    }
    x = oracle_layer(*layers[i], x, g, check);
  }
  return x;
}

Tensor oracle_layer(Layer& layer, const Tensor& x, const AbftChecksum* g,
                    AbftLayerCheck* check) {
  const std::string kind = layer.kind();
  if (kind == "conv2d") {
    return oracle_fused(static_cast<Conv2D&>(layer), x, nullptr, false, g,
                        check);
  }
  if (kind == "sequential") {
    return oracle_sequential(static_cast<Sequential&>(layer), x, g, check);
  }
  if (kind == "residual") {
    auto& block = static_cast<ResidualBlock&>(layer);
    Tensor main = oracle_sequential(block.body(), x, child(g, 0), check);
    const Tensor shortcut =
        block.projection() != nullptr
            ? oracle_layer(*block.projection(), x, child(g, 1), check)
            : x;
    main += shortcut;
    main = ReLU().forward(main, /*train=*/false);
    if (g != nullptr) abft_guard_finite(main.data(), main.numel(), check);
    return main;
  }
  if (kind == "relu" && g != nullptr) {
    // The range guard as separate passes: the input's envelope, the
    // forward, then every output inside [0, max(0, input max)].
    float lo = 0.0F;
    float hi = 0.0F;
    abft_minmax(x.data(), x.numel(), &lo, &hi);
    const Tensor out = layer.forward(x, /*train=*/false);
    abft_guard_range(out.data(), out.numel(), 0.0F, std::max(0.0F, hi),
                     check);
    return out;
  }
  if (kind == "denseblock") {
    auto& block = static_cast<DenseBlock&>(layer);
    Tensor features = x;
    for (std::size_t i = 0; i < block.units().size(); ++i) {
      const Tensor contribution =
          oracle_sequential(*block.units()[i], features, child(g, i), check);
      features = concat_channels(features, contribution);
    }
    return features;
  }
  return g != nullptr ? layer.forward_abft(x, *g, check)
                      : layer.forward(x, /*train=*/false);
}

/// QuantizedNetwork's golden checksum per top-level layer at full
/// precision, taken from the current (known good) weights.
std::vector<AbftChecksum> bless(Network& net, Protection protection) {
  auto& layers = net.mutable_layers();
  std::vector<AbftChecksum> golden(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (protection == Protection::final_fc) {
      if (l + 1 == layers.size() && layers[l]->kind() == "dense") {
        golden[l] = layers[l]->abft_checksum();
      }
    } else if (protection == Protection::full) {
      if (l + 1 < layers.size() && layers[l]->kind() == "conv2d" &&
          layers[l + 1]->kind() == "batchnorm") {
        Tensor scale;
        Tensor shift;
        static_cast<BatchNorm&>(*layers[l + 1])
            .effective_affine(&scale, &shift);
        golden[l] = static_cast<Conv2D&>(*layers[l])
                        .abft_checksum_folded(scale, shift);
        ++l;
        continue;
      }
      golden[l] = layers[l]->abft_checksum();
    }
  }
  return golden;
}

/// QuantizedNetwork::forward's loop at full precision over the oracle
/// layers.
quant::AbftCheck oracle_network(Network& net,
                                const std::vector<AbftChecksum>& golden,
                                const Tensor& input, Tensor* out) {
  auto& layers = net.mutable_layers();
  quant::AbftCheck abft;
  Tensor x = input;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (golden[l].empty()) {
      x = oracle_layer(*layers[l], x, nullptr, nullptr);
      continue;
    }
    AbftLayerCheck check;
    if (golden[l].form == AbftForm::folded) {
      x = oracle_fused(static_cast<Conv2D&>(*layers[l]), x,
                       &static_cast<BatchNorm&>(*layers[l + 1]), false,
                       &golden[l], &check);
    } else {
      x = oracle_layer(*layers[l], x, &golden[l], &check);
    }
    if (check.checked) {
      abft.checked = true;
      ++abft.layers_checked;
      abft.max_rel_error = std::max(abft.max_rel_error, check.max_rel_error);
      if (!check.ok && abft.ok) {
        abft.ok = false;
        abft.failed_layer = static_cast<int>(l);
      }
    }
    if (golden[l].form == AbftForm::folded) ++l;
  }
  *out = x;
  return abft;
}

/// A zoo model with BatchNorm statistics and affine terms moved off their
/// initial values, so every epilogue and folded checksum is nontrivial.
Network model(const std::string& id, std::uint64_t seed) {
  Rng rng(seed);
  const zoo::InputSpec spec{3, 16, 10};
  Network net = id == "resnet20" ? zoo::make_resnet20(spec, rng)
                                 : zoo::make_densenet(spec, rng);
  net.forward(random_input(6, 3, 16, 16, rng), /*train=*/true);
  return net;
}

class FusedNetworkTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FusedNetworkTest, ProtectionLevelsMatchTheOracleAtEveryBatch) {
  for (const Protection protection :
       {Protection::off, Protection::final_fc, Protection::full}) {
    Network oracle_net = model(GetParam(), 5);
    const std::vector<AbftChecksum> golden = bless(oracle_net, protection);
    quant::QuantizedNetwork served(model(GetParam(), 5), quant::kFullBits,
                                   protection);
    Rng rng(61);
    for (std::int64_t batch = 1; batch <= 5; ++batch) {
      const Tensor input = random_input(batch, 3, 16, 16, rng);
      Tensor want;
      const quant::AbftCheck want_check =
          oracle_network(oracle_net, golden, input, &want);
      quant::AbftCheck got_check;
      const Tensor got = served.forward(input, &got_check);
      const std::string what = std::string(to_string(protection)) +
                               " batch " + std::to_string(batch);
      ASSERT_TRUE(same_tensor(got, want)) << what;
      EXPECT_EQ(got_check.checked, want_check.checked) << what;
      EXPECT_EQ(got_check.ok, want_check.ok) << what;
      EXPECT_EQ(got_check.layers_checked, want_check.layers_checked) << what;
      EXPECT_EQ(got_check.failed_layer, want_check.failed_layer) << what;
      EXPECT_TRUE(same_bits(&got_check.max_rel_error,
                            &want_check.max_rel_error, 1))
          << what;
    }
  }
}

TEST_P(FusedNetworkTest, ExponentFlipInEveryParamGivesTheOracleVerdict) {
  // One high-exponent flip at a time in every parameter tensor (conv
  // weights and biases, BatchNorm gamma and beta, the dense head), under
  // full protection: the same ok, failed_layer and max_rel_error.
  Network oracle_net = model(GetParam(), 7);
  const std::vector<AbftChecksum> golden = bless(oracle_net, Protection::full);
  quant::QuantizedNetwork served(model(GetParam(), 7), quant::kFullBits,
                                 Protection::full);
  Rng rng(67);
  const Tensor input = random_input(3, 3, 16, 16, rng);
  const std::vector<Tensor*> mine = served.mutable_network().params();
  const std::vector<Tensor*> theirs = oracle_net.params();
  ASSERT_EQ(mine.size(), theirs.size());
  int detected = 0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const std::int64_t at =
        (7 * static_cast<std::int64_t>(i)) % mine[i]->numel();
    std::uint32_t bits = 0;
    std::memcpy(&bits, mine[i]->data() + at, sizeof bits);
    bits ^= 1U << 30;
    std::memcpy(mine[i]->data() + at, &bits, sizeof bits);
    std::memcpy(theirs[i]->data() + at, &bits, sizeof bits);

    Tensor want;
    const quant::AbftCheck want_check =
        oracle_network(oracle_net, golden, input, &want);
    quant::AbftCheck got_check;
    const Tensor got = served.forward(input, &got_check);
    const std::string what = "param " + std::to_string(i);
    EXPECT_TRUE(same_tensor(got, want)) << what;
    EXPECT_EQ(got_check.ok, want_check.ok) << what;
    EXPECT_EQ(got_check.failed_layer, want_check.failed_layer) << what;
    EXPECT_TRUE(same_bits(&got_check.max_rel_error,
                          &want_check.max_rel_error, 1))
        << what;
    if (!got_check.ok) ++detected;

    bits ^= 1U << 30;
    std::memcpy(mine[i]->data() + at, &bits, sizeof bits);
    std::memcpy(theirs[i]->data() + at, &bits, sizeof bits);
  }
  EXPECT_GT(detected, 0);
}

INSTANTIATE_TEST_SUITE_P(Zoo, FusedNetworkTest,
                         ::testing::Values("resnet20", "densenet40"));

}  // namespace
}  // namespace pgmr::nn
