// The fast conv forward engine against its scalar oracle, bit for bit:
// im2col_fast vs im2col, gemm_bias vs bias-fill + gemm_accumulate, and
// Conv2D's forward, forward_abft and forward_folded vs per-sample
// im2col + gemm_accumulate. Every comparison is a memcmp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "nn/abft.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/forward_engine.h"
#include "nn/gemm.h"
#include "nn/im2col.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

/// Index of the first element whose bits differ, or -1.
std::int64_t first_difference(const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return i;
  }
  return -1;
}

::testing::AssertionResult same_bits(const float* a, const float* b,
                                     std::int64_t n) {
  const std::int64_t at = first_difference(a, b, n);
  if (at < 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "element " << at << " of " << n << ": " << a[at] << " vs "
         << b[at];
}

/// The platform's own NaN, made at run time. Every NaN in these tests has
/// this one bit pattern, because IEEE 754 leaves open which payload an
/// operation returns when two different NaNs meet.
float runtime_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

struct ConvShape {
  std::string name;
  std::int64_t in_c, out_c, kernel, stride, pad, in_h, in_w;
};

void PrintTo(const ConvShape& c, std::ostream* os) { *os << c.name; }

// Every conv of the zoo (src/zoo/models.cpp) at its served input size,
// then ragged shapes: output channels that are not a multiple of the
// 6-row tile, output widths that are not a multiple of any vector width,
// non-square images, padding wider than the kernel reach, stride 3, and
// output planes large enough for the row-by-row im2col.
const std::vector<ConvShape>& shapes() {
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
      {"densenet40_stem", 3, 8, 3, 1, 1, 16, 16},
      {"densenet40_b1u1", 8, 6, 3, 1, 1, 16, 16},
      {"densenet40_b1u2", 14, 6, 3, 1, 1, 16, 16},
      {"densenet40_b1u3", 20, 6, 3, 1, 1, 16, 16},
      {"densenet40_t1", 26, 13, 1, 1, 0, 16, 16},
      {"densenet40_b2u1", 13, 6, 3, 1, 1, 8, 8},
      {"densenet40_b2u2", 19, 6, 3, 1, 1, 8, 8},
      {"densenet40_b2u3", 25, 6, 3, 1, 1, 8, 8},
      {"densenet40_t2", 31, 15, 1, 1, 0, 8, 8},
      {"densenet40_b3u1", 15, 6, 3, 1, 1, 4, 4},
      {"densenet40_b3u2", 21, 6, 3, 1, 1, 4, 4},
      {"densenet40_b3u3", 27, 6, 3, 1, 1, 4, 4},
      {"alexnet_c1", 3, 8, 5, 1, 2, 24, 24},
      {"alexnet_c2", 8, 16, 3, 1, 1, 12, 12},
      {"alexnet_c3", 16, 24, 3, 1, 1, 6, 6},
      {"resnet34_stem", 3, 6, 3, 1, 1, 24, 24},
      {"resnet34_s2_entry", 6, 12, 3, 2, 1, 24, 24},
      {"ragged_rows7", 4, 7, 3, 1, 1, 9, 11},
      {"ragged_rows13_wide", 5, 13, 3, 1, 1, 5, 37},
      {"ragged_rows1", 2, 1, 3, 1, 1, 7, 3},
      {"ragged_stride2_k5", 3, 11, 5, 2, 2, 13, 9},
      {"ragged_stride3", 2, 5, 3, 3, 1, 10, 17},
      {"ragged_wide_pad", 2, 9, 3, 1, 3, 5, 6},
      {"ragged_1x1_odd", 7, 17, 1, 1, 0, 3, 7},
      {"ragged_1x1_padded", 3, 4, 1, 1, 1, 4, 5},
      {"ragged_kernel_eq_input", 3, 5, 4, 1, 0, 4, 4},
      // Output planes larger than any in the zoo (over 1024 pixels).
      {"large_plane_same", 2, 7, 3, 1, 1, 36, 33},
      {"large_plane_valid", 2, 3, 3, 1, 0, 40, 35},
      {"large_plane_stride2", 2, 5, 3, 2, 1, 70, 66},
  };
  return all;
}

ConvGeometry geometry_of(const ConvShape& c) {
  ConvGeometry geo;
  geo.in_channels = c.in_c;
  geo.in_h = c.in_h;
  geo.in_w = c.in_w;
  geo.kernel = c.kernel;
  geo.stride = c.stride;
  geo.pad = c.pad;
  return geo;
}

/// The oracle: per sample, im2col, fill each output row with its bias,
/// gemm_accumulate.
Tensor oracle_forward(Conv2D& conv, const Tensor& input, const ConvShape& c) {
  const ConvGeometry geo = geometry_of(c);
  const std::int64_t batch = input.shape()[0];
  const std::int64_t spatial = geo.out_h() * geo.out_w();
  const std::int64_t patch = geo.patch_size();
  const Tensor& weight = *conv.params()[0];
  const Tensor& bias = *conv.params()[1];
  Tensor out(Shape{batch, c.out_c, geo.out_h(), geo.out_w()});
  std::vector<float> col(static_cast<std::size_t>(patch * spatial));
  for (std::int64_t n = 0; n < batch; ++n) {
    im2col(input.data() + n * c.in_c * c.in_h * c.in_w, geo, col.data());
    float* dst = out.data() + n * c.out_c * spatial;
    for (std::int64_t oc = 0; oc < c.out_c; ++oc) {
      for (std::int64_t s = 0; s < spatial; ++s) dst[oc * spatial + s] = bias[oc];
    }
    gemm_accumulate(weight.data(), col.data(), dst, c.out_c, patch, spatial);
  }
  return out;
}

Tensor random_input(const ConvShape& c, std::int64_t batch, Rng& rng) {
  Tensor input(Shape{batch, c.in_c, c.in_h, c.in_w});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = rng.uniform(-1.0F, 1.0F);
  }
  return input;
}

/// Zero weights scattered through every row, one row entirely zero with a
/// -0.0 bias, and NaN / +-inf / -0.0 / +0.0 activations sprinkled through
/// the image: the cases where skipping a zero weight changes the result.
void poison(Conv2D& conv, Tensor& input, Rng& rng) {
  Tensor& weight = *conv.params()[0];
  Tensor& bias = *conv.params()[1];
  const std::int64_t rows = weight.shape()[0];
  const std::int64_t patch = weight.shape()[1];
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    if (rng.bernoulli(0.2)) weight[i] = rng.bernoulli(0.5) ? 0.0F : -0.0F;
  }
  const std::int64_t dead = rows / 2;
  for (std::int64_t p = 0; p < patch; ++p) weight[dead * patch + p] = 0.0F;
  bias[dead] = -0.0F;
  if (rows > 1) bias[0] = -0.0F;
  const float specials[] = {runtime_nan(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0F,
                            0.0F};
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    if (rng.bernoulli(0.03)) {
      input[i] = specials[rng.randint(0, 4)];
    }
  }
}

class ConvEngineTest : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvEngineTest, Im2colMatchesOracle) {
  const ConvShape& c = GetParam();
  Rng rng(7);
  const ConvGeometry geo = geometry_of(c);
  const Tensor image = random_input(c, 1, rng);
  const std::int64_t size = geo.patch_size() * geo.out_h() * geo.out_w();
  // Garbage in the destination proves every element is written.
  std::vector<float> want(static_cast<std::size_t>(size), 1234.5F);
  std::vector<float> got(static_cast<std::size_t>(size), -777.0F);
  im2col(image.data(), geo, want.data());
  im2col_fast(image.data(), geo, got.data());
  EXPECT_TRUE(same_bits(got.data(), want.data(), size));
}

TEST_P(ConvEngineTest, ForwardMatchesOracleAtBatchOneAndFour) {
  const ConvShape& c = GetParam();
  for (const std::int64_t batch : {1, 4}) {
    Rng rng(11 + batch);
    Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
    conv.init(rng);
    for (std::int64_t oc = 0; oc < c.out_c; ++oc) {
      (*conv.params()[1])[oc] = rng.uniform(-0.5F, 0.5F);
    }
    const Tensor input = random_input(c, batch, rng);
    const Tensor want = oracle_forward(conv, input, c);
    const Tensor got = conv.forward(input, /*train=*/false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(same_bits(got.data(), want.data(), want.numel()))
        << "batch " << batch;
    const Tensor trained = conv.forward(input, /*train=*/true);
    EXPECT_TRUE(same_bits(trained.data(), want.data(), want.numel()))
        << "train, batch " << batch;
  }
}

TEST_P(ConvEngineTest, ZeroWeightsAndNonFiniteActivationsMatchOracle) {
  const ConvShape& c = GetParam();
  for (const std::int64_t batch : {1, 4}) {
    Rng rng(23 + batch);
    Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
    conv.init(rng);
    Tensor input = random_input(c, batch, rng);
    poison(conv, input, rng);
    const Tensor want = oracle_forward(conv, input, c);
    const Tensor got = conv.forward(input, /*train=*/false);
    EXPECT_TRUE(same_bits(got.data(), want.data(), want.numel()))
        << "batch " << batch;
  }
}

TEST_P(ConvEngineTest, AbftAndFoldedPathsMatchOracle) {
  const ConvShape& c = GetParam();
  const std::int64_t batch = 4;
  Rng rng(31);
  Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
  conv.init(rng);
  const Tensor input = random_input(c, batch, rng);
  const Tensor want = oracle_forward(conv, input, c);

  AbftLayerCheck check;
  const Tensor checked = conv.forward_abft(input, conv.abft_checksum(), &check);
  EXPECT_TRUE(same_bits(checked.data(), want.data(), want.numel()));
  EXPECT_TRUE(check.checked);
  EXPECT_TRUE(check.ok);

  // conv -> BN verified as one folded identity against the column
  // matrices the GEMM consumed.
  BatchNorm bn(c.out_c);
  for (Tensor* p : bn.params()) {
    for (std::int64_t oc = 0; oc < c.out_c; ++oc) {
      (*p)[oc] = rng.uniform(-2.0F, 2.0F);
    }
  }
  Tensor scale;
  Tensor shift;
  bn.effective_affine(&scale, &shift);
  AbftLayerCheck folded;
  const Tensor got = conv.forward_folded(
      input, bn, conv.abft_checksum_folded(scale, shift), &folded);
  const Tensor bn_want = bn.forward(want, /*train=*/false);
  EXPECT_TRUE(same_bits(got.data(), bn_want.data(), bn_want.numel()));
  EXPECT_TRUE(folded.checked);
  EXPECT_TRUE(folded.ok);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvEngineTest, ::testing::ValuesIn(shapes()),
                         ::testing::PrintToStringParamName());

TEST(GemmBiasTest, MatchesOracleOnRaggedTiles) {
  // Every row count across two tiles of six and every column count across
  // two 16-lane vectors, so each partial-tile path runs.
  Rng rng(5);
  const float nan = runtime_nan();
  for (std::int64_t m = 1; m <= 13; ++m) {
    for (std::int64_t n = 1; n <= 35; ++n) {
      const std::int64_t k = 1 + (m * n) % 9;
      std::vector<float> a(static_cast<std::size_t>(m * k));
      std::vector<float> b(static_cast<std::size_t>(k * n));
      std::vector<float> bias(static_cast<std::size_t>(m));
      for (float& v : a) v = rng.bernoulli(0.1) ? 0.0F : rng.uniform(-1, 1);
      for (float& v : b) v = rng.bernoulli(0.05) ? nan : rng.uniform(-1, 1);
      for (float& v : bias) v = rng.bernoulli(0.3) ? -0.0F : rng.uniform(-1, 1);
      std::vector<float> want(static_cast<std::size_t>(m * n));
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) want[i * n + j] = bias[i];
      }
      gemm_accumulate(a.data(), b.data(), want.data(), m, k, n);
      std::vector<float> got(static_cast<std::size_t>(m * n), 99.0F);
      gemm_bias(a.data(), bias.data(), b.data(), got.data(), m, k, n);
      ASSERT_TRUE(same_bits(got.data(), want.data(), m * n))
          << "m " << m << " k " << k << " n " << n;
    }
  }
}

TEST(AbftColsTest, MatchesTheColumnWalk) {
  // abft_verify_cols sums C row by row; the per-column walk it replaced
  // adds the same terms in the same order, so max_rel_error is identical.
  Rng rng(9);
  const std::int64_t m = 7;
  const std::int64_t k = 20;
  const std::int64_t n = 45;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> bias(static_cast<std::size_t>(m));
  for (float& v : a) v = rng.uniform(-1, 1);
  for (float& v : b) v = rng.uniform(-1, 1);
  for (float& v : bias) v = rng.uniform(-1, 1);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm_bias(a.data(), bias.data(), b.data(), c.data(), m, k, n);
  c[3 * n + 17] *= 1.5F;  // one corrupted output

  AbftChecksum golden;
  golden.colsum = Tensor(Shape{k});
  gemm_col_sums(a.data(), m, k, golden.colsum.data());
  for (const float v : bias) golden.bias_sum += static_cast<double>(v);

  bool ok = true;
  float max_rel = 0.0F;
  for (std::int64_t j = 0; j < n; ++j) {
    double expected = golden.bias_sum;
    for (std::int64_t p = 0; p < k; ++p) {
      const double w = golden.colsum[p];
      if (w == 0.0) continue;
      expected += w * b[p * n + j];
    }
    double actual = 0.0;
    for (std::int64_t i = 0; i < m; ++i) actual += c[i * n + j];
    const double rel = std::abs(actual - expected) / (1.0 + std::abs(expected));
    if (!(rel <= static_cast<double>(kAbftTolerance))) ok = false;
    max_rel = std::max(max_rel, static_cast<float>(rel));
  }
  AbftLayerCheck check;
  abft_verify_cols(b.data(), c.data(), m, k, n, golden, &check);
  EXPECT_FALSE(ok);
  EXPECT_EQ(check.ok, ok);
  EXPECT_TRUE(same_bits(&check.max_rel_error, &max_rel, 1));
}

}  // namespace
}  // namespace pgmr::nn
