// Full-network ABFT protection levels and the parameter-CRC snapshot:
// bit-identity at zero faults, per-layer detection (including layers
// nested in composites), and CRC coverage of flips ABFT's tolerance hides.
#include <bit>
#include <limits>

#include <gtest/gtest.h>

#include "nn/abft.h"
#include "nn/activations.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "quant/quantized_network.h"
#include "tensor/random.h"

namespace pgmr::quant {
namespace {

// conv(0) -> relu(1) -> flatten(2) -> dense(3)
nn::Network make_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 3, 1, 1);
  conv->init(rng);
  layers.push_back(std::move(conv));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(4 * 6 * 6, 4);
  fc->init(rng);
  layers.push_back(std::move(fc));
  return nn::Network("abftnet", std::move(layers));
}

// residual(0: conv nested in the body Sequential) -> flatten(1) -> dense(2)
nn::Network make_residual_net(std::uint64_t seed) {
  Rng rng(seed);
  auto body = std::make_unique<nn::Sequential>();
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 3, 1, 1);
  conv->init(rng);
  body->add(std::move(conv));
  auto projection = std::make_unique<nn::Conv2D>(1, 4, 1, 1, 0);
  projection->init(rng);

  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::ResidualBlock>(std::move(body),
                                                       std::move(projection)));
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(4 * 6 * 6, 4);
  fc->init(rng);
  layers.push_back(std::move(fc));
  return nn::Network("resnet-abft", std::move(layers));
}

Tensor random_input(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{3, 1, 6, 6});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

void flip_bit(QuantizedNetwork& q, std::size_t param, std::int64_t element,
              int bit) {
  float& slot = (*q.mutable_network().params()[param])[element];
  slot = std::bit_cast<float>(std::bit_cast<std::uint32_t>(slot) ^
                              (1U << bit));
}

TEST(AbftProtectionTest, ProtectionLevelsAreBitIdenticalAtZeroFaults) {
  QuantizedNetwork off(make_net(1), 20, nn::Protection::off);
  QuantizedNetwork fc(make_net(1), 20, nn::Protection::final_fc);
  QuantizedNetwork full(make_net(1), 20, nn::Protection::full);
  const Tensor x = random_input(2);

  AbftCheck off_check, fc_check, full_check;
  const Tensor y_off = off.forward(x, &off_check);
  const Tensor y_fc = fc.forward(x, &fc_check);
  const Tensor y_full = full.forward(x, &full_check);
  EXPECT_TRUE(allclose(y_off, y_fc, 0.0F));
  EXPECT_TRUE(allclose(y_off, y_full, 0.0F));

  EXPECT_FALSE(off_check.checked);
  EXPECT_TRUE(fc_check.checked);
  EXPECT_TRUE(fc_check.ok);
  EXPECT_EQ(fc_check.layers_checked, 1);  // the final Dense only
  EXPECT_TRUE(full_check.checked);
  EXPECT_TRUE(full_check.ok);
  EXPECT_EQ(full_check.layers_checked, 3);  // Conv2D + ReLU guard + Dense
}

TEST(AbftProtectionTest, FullProtectionCatchesConvFlipFinalFcMisses) {
  QuantizedNetwork fc(make_net(3), 32, nn::Protection::final_fc);
  QuantizedNetwork full(make_net(3), 32, nn::Protection::full);
  const Tensor x = random_input(4);

  // High-exponent flip in the conv weight tensor (param 0).
  flip_bit(fc, 0, 7, 26);
  flip_bit(full, 0, 7, 26);

  AbftCheck fc_check;
  fc.forward(x, &fc_check);
  EXPECT_TRUE(fc_check.ok) << "final-FC checksum cannot see a conv fault";

  AbftCheck full_check;
  full.forward(x, &full_check);
  EXPECT_TRUE(full_check.checked);
  EXPECT_FALSE(full_check.ok);
  EXPECT_EQ(full_check.failed_layer, 0);
  EXPECT_EQ(full_check.failed_kind, "conv2d");
  EXPECT_GT(full_check.max_rel_error, kAbftTolerance);
}

TEST(AbftProtectionTest, DenseFlipDetectedAtBothLevels) {
  QuantizedNetwork fc(make_net(5), 32, nn::Protection::final_fc);
  QuantizedNetwork full(make_net(5), 32, nn::Protection::full);
  const Tensor x = random_input(6);

  // Param 2 is the Dense weight matrix.
  flip_bit(fc, 2, 11, 27);
  flip_bit(full, 2, 11, 27);

  AbftCheck fc_check;
  fc.forward(x, &fc_check);
  EXPECT_FALSE(fc_check.ok);
  EXPECT_EQ(fc_check.failed_kind, "dense");

  AbftCheck full_check;
  full.forward(x, &full_check);
  EXPECT_FALSE(full_check.ok);
  EXPECT_EQ(full_check.failed_layer, 3);
  EXPECT_EQ(full_check.failed_kind, "dense");
}

TEST(AbftProtectionTest, ConvNestedInResidualBlockIsProtected) {
  QuantizedNetwork q(make_residual_net(7), 32, nn::Protection::full);
  const Tensor x = random_input(8);

  AbftCheck clean;
  q.forward(x, &clean);
  EXPECT_TRUE(clean.ok);
  EXPECT_GE(clean.layers_checked, 2);  // residual (nested convs) + dense

  // Param 0 is the body conv weight, nested two levels deep
  // (ResidualBlock -> Sequential -> Conv2D).
  flip_bit(q, 0, 3, 26);
  AbftCheck faulty;
  q.forward(x, &faulty);
  EXPECT_FALSE(faulty.ok);
  EXPECT_EQ(faulty.failed_layer, 0);
  EXPECT_EQ(faulty.failed_kind, "residual");
}

TEST(AbftProtectionTest, CrcSnapshotCatchesFlipAbftTolerates) {
  QuantizedNetwork q(make_net(9), 32, nn::Protection::full);
  const Tensor x = random_input(10);
  EXPECT_TRUE(q.params_intact());
  EXPECT_EQ(q.first_corrupt_param(), -1);

  // A mantissa-LSB flip perturbs by ~2^-23 relative: far inside the ABFT
  // tolerance, so the inline check stays green...
  flip_bit(q, 0, 0, 0);
  AbftCheck check;
  q.forward(x, &check);
  EXPECT_TRUE(check.ok);
  // ...but the CRC snapshot is exact.
  EXPECT_FALSE(q.params_intact());
  EXPECT_EQ(q.first_corrupt_param(), 0);

  // Undo the flip (XOR involution): the snapshot matches again.
  flip_bit(q, 0, 0, 0);
  EXPECT_TRUE(q.params_intact());
}

TEST(AbftProtectionTest, RefreshChecksumBlessesLegitimateEdits) {
  QuantizedNetwork q(make_net(11), 32, nn::Protection::full);
  (*q.mutable_network().params()[0])[1] = 0.125F;
  EXPECT_FALSE(q.params_intact());

  q.refresh_checksum();
  EXPECT_TRUE(q.params_intact());
  AbftCheck check;
  q.forward(random_input(12), &check);
  EXPECT_TRUE(check.ok);
}

TEST(AbftProtectionTest, MinmaxMatchesTheSerialScanBitForBit) {
  // The serial scan the guard envelopes were defined by: NaN fails both
  // compares and is skipped, ±inf take part, and of +0 and -0 the first in
  // index order wins.
  const auto serial = [](const std::vector<float>& x, float* lo, float* hi) {
    *lo = std::numeric_limits<float>::infinity();
    *hi = -std::numeric_limits<float>::infinity();
    for (const float v : x) {
      if (v < *lo) *lo = v;
      if (v > *hi) *hi = v;
    }
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float palette[] = {0.0F,  -0.0F, kInf, -kInf,
                           std::numeric_limits<float>::quiet_NaN(),
                           1.5F,  -1.5F, 3.0F, -3.0F};
  Rng rng(80);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<float> x(static_cast<std::size_t>(rng.randint(0, 70)));
    for (float& v : x) v = palette[rng.randint(0, 8)];
    float want_lo = 0.0F, want_hi = 0.0F, lo = 0.0F, hi = 0.0F;
    serial(x, &want_lo, &want_hi);
    nn::abft_minmax(x.data(), static_cast<std::int64_t>(x.size()), &lo, &hi);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(lo),
              std::bit_cast<std::uint32_t>(want_lo)) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(hi),
              std::bit_cast<std::uint32_t>(want_hi)) << "trial " << trial;
  }
}

TEST(AbftProtectionTest, SetProtectionRetrofitsChecksums) {
  QuantizedNetwork q(make_net(13), 32, nn::Protection::off);
  AbftCheck before;
  q.forward(random_input(14), &before);
  EXPECT_FALSE(before.checked);

  q.set_protection(nn::Protection::full);
  EXPECT_EQ(q.protection(), nn::Protection::full);
  AbftCheck after;
  q.forward(random_input(14), &after);
  EXPECT_TRUE(after.checked);
  EXPECT_EQ(after.layers_checked, 3);  // Conv2D + ReLU guard + Dense
}

}  // namespace
}  // namespace pgmr::quant
