// MC-dropout uncertainty tests.
#include "calib/mc_dropout.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "tensor/random.h"

namespace pgmr::calib {
namespace {

nn::Network make_dropout_net(std::uint64_t seed, float p) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  auto fc1 = std::make_unique<nn::Dense>(8, 16);
  fc1->init(rng);
  layers.push_back(std::move(fc1));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Dropout>(p, rng.engine()()));
  auto fc2 = std::make_unique<nn::Dense>(16, 3);
  fc2->init(rng);
  layers.push_back(std::move(fc2));
  return nn::Network("mc", std::move(layers));
}

Tensor random_input(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1, 1);
  return x;
}

TEST(McDropoutTest, MeanIsNormalizedDistribution) {
  nn::Network net = make_dropout_net(1, 0.3F);
  const Tensor probs = mc_dropout_probabilities(net, random_input(5, 2), 10);
  EXPECT_EQ(probs.shape(), Shape({5, 3}));
  for (std::int64_t i = 0; i < 5; ++i) {
    float row = 0.0F;
    for (std::int64_t c = 0; c < 3; ++c) row += probs.at(i, c);
    EXPECT_NEAR(row, 1.0F, 1e-5F);
  }
}

TEST(McDropoutTest, DropoutFreeNetworkMatchesDeterministicInference) {
  nn::Network net = make_dropout_net(3, 0.0F);  // p=0 disables the mask
  const Tensor x = random_input(4, 4);
  const Tensor mc = mc_dropout_probabilities(net, x, 6);
  const Tensor det = net.probabilities(x);
  EXPECT_TRUE(allclose(mc, det, 1e-5F));
}

TEST(McDropoutTest, RejectsNonPositivePasses) {
  nn::Network net = make_dropout_net(9, 0.2F);
  const Tensor x = random_input(2, 10);
  EXPECT_THROW(mc_dropout_probabilities(net, x, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pgmr::calib
