// Synthetic corpus generator tests: determinism, balance, value ranges and
// the monotone effect of the difficulty knobs.
#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace pgmr::data {
namespace {

SyntheticSpec tiny_spec() {
  SyntheticSpec s;
  s.channels = 3;
  s.size = 16;
  s.num_classes = 5;
  s.count = 200;
  s.seed = 42;
  return s;
}

TEST(SyntheticTest, GeneratesRequestedGeometry) {
  const Dataset ds = generate_synthetic(tiny_spec());
  EXPECT_EQ(ds.size(), 200);
  EXPECT_EQ(ds.images.shape(), Shape({200, 3, 16, 16}));
  EXPECT_EQ(ds.num_classes, 5);
  EXPECT_EQ(ds.labels.size(), 200U);
}

TEST(SyntheticTest, DeterministicForSameSeed) {
  const Dataset a = generate_synthetic(tiny_spec());
  const Dataset b = generate_synthetic(tiny_spec());
  EXPECT_TRUE(allclose(a.images, b.images, 0.0F));
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticSpec spec = tiny_spec();
  const Dataset a = generate_synthetic(spec);
  spec.seed = 43;
  const Dataset b = generate_synthetic(spec);
  EXPECT_FALSE(allclose(a.images, b.images, 1e-3F));
}

TEST(SyntheticTest, PixelsInUnitRange) {
  const Dataset ds = generate_synthetic(tiny_spec());
  for (std::int64_t i = 0; i < ds.images.numel(); ++i) {
    EXPECT_GE(ds.images[i], 0.0F);
    EXPECT_LE(ds.images[i], 1.0F);
  }
}

TEST(SyntheticTest, LabelsBalancedAndInRange) {
  const Dataset ds = generate_synthetic(tiny_spec());
  std::vector<int> counts(5, 0);
  for (std::int64_t label : ds.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 5);
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int c : counts) EXPECT_EQ(c, 40);  // 200 / 5, round-robin balanced
}

TEST(SyntheticTest, PrefixSliceStaysRoughlyBalanced) {
  // Labels are shuffled, so the train prefix of a split must contain every
  // class in near-equal proportion.
  const Dataset ds = generate_synthetic(tiny_spec());
  const Dataset train = ds.slice(0, 100);
  std::vector<int> counts(5, 0);
  for (std::int64_t label : train.labels) {
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 8);
    EXPECT_LT(c, 32);
  }
}

TEST(SyntheticTest, NoiseKnobRaisesPixelVariance) {
  SyntheticSpec clean = tiny_spec();
  clean.noise_std = 0.0F;
  SyntheticSpec noisy = tiny_spec();
  noisy.noise_std = 0.2F;
  const Dataset a = generate_synthetic(clean);
  const Dataset b = generate_synthetic(noisy);
  // Mean absolute pixel difference between the two corpora is large.
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.images.numel(); ++i) {
    diff += std::fabs(a.images[i] - b.images[i]);
  }
  diff /= static_cast<double>(a.images.numel());
  EXPECT_GT(diff, 0.05);
}

TEST(SyntheticTest, OcclusionProducesConstantPatches) {
  SyntheticSpec spec = tiny_spec();
  spec.occlusion_prob = 1.0F;
  spec.occlusion_size = 0.5F;
  spec.noise_std = 0.0F;
  const Dataset ds = generate_synthetic(spec);
  // With occlusion on every image and no noise, each image must contain an
  // 8x8 constant block (0.05 or 0.85) in some channel.
  std::int64_t with_patch = 0;
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    bool found = false;
    for (std::int64_t y = 0; y < 16 && !found; ++y) {
      for (std::int64_t x = 0; x < 16 && !found; ++x) {
        const float v = ds.images.at(i, 0, y, x);
        if (v == 0.05F || v == 0.85F) found = true;
      }
    }
    with_patch += found ? 1 : 0;
  }
  EXPECT_EQ(with_patch, ds.size());
}

TEST(SyntheticTest, CanonicalSpecsMatchPaperTiers) {
  const SyntheticSpec mnist = smnist_spec(100);
  EXPECT_EQ(mnist.channels, 1);
  EXPECT_EQ(mnist.num_classes, 10);
  const SyntheticSpec cifar = scifar_spec(100);
  EXPECT_EQ(cifar.channels, 3);
  EXPECT_EQ(cifar.num_classes, 10);
  const SyntheticSpec imagenet = simagenet_spec(100);
  EXPECT_EQ(imagenet.channels, 3);
  EXPECT_EQ(imagenet.num_classes, 20);
  EXPECT_GT(imagenet.size, cifar.size);
  // Difficulty must increase across tiers.
  EXPECT_LT(mnist.class_similarity, cifar.class_similarity);
  EXPECT_LT(cifar.class_similarity, imagenet.class_similarity);
  EXPECT_LT(mnist.noise_std, imagenet.noise_std);
}

TEST(SyntheticTest, InvalidSpecsRejected) {
  SyntheticSpec s = tiny_spec();
  s.count = 0;
  EXPECT_THROW(generate_synthetic(s), std::invalid_argument);
  s = tiny_spec();
  s.num_classes = 1;
  EXPECT_THROW(generate_synthetic(s), std::invalid_argument);
  s = tiny_spec();
  s.channels = 2;
  EXPECT_THROW(generate_synthetic(s), std::invalid_argument);
  s = tiny_spec();
  s.size = 4;
  EXPECT_THROW(generate_synthetic(s), std::invalid_argument);
}

TEST(SyntheticTest, PartsAreSlicesOfTheFullCorpus) {
  const SyntheticSpec s = tiny_spec();
  const Dataset full = generate_synthetic(s);
  const std::vector<std::int64_t> sizes = {s.count / 2, s.count / 4, 3};
  const std::vector<Dataset> parts = generate_synthetic_parts(s, sizes);
  ASSERT_EQ(parts.size(), sizes.size());
  std::int64_t begin = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const Dataset want = full.slice(begin, begin + sizes[p]);
    ASSERT_EQ(parts[p].images.shape(), want.images.shape());
    EXPECT_EQ(parts[p].labels, want.labels);
    EXPECT_EQ(std::memcmp(parts[p].images.data(), want.images.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(want.images.numel())),
              0)
        << "part " << p;
    EXPECT_EQ(parts[p].num_classes, full.num_classes);
    begin += sizes[p];
  }
  EXPECT_THROW(generate_synthetic_parts(s, {s.count, 1}),
               std::invalid_argument);
  EXPECT_THROW(generate_synthetic_parts(s, {-1}), std::invalid_argument);
}

}  // namespace
}  // namespace pgmr::data
