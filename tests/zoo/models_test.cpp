// Architecture tests for the six zoo models.
#include "zoo/models.h"

#include <gtest/gtest.h>

#include <functional>

namespace pgmr::zoo {
namespace {

struct ModelCase {
  std::string name;
  InputSpec input;
  std::function<nn::Network(const InputSpec&, Rng&)> make;
};

// gtest prints a parameter into the test listing; the default byte dump
// would carry the name's heap pointer and change on every run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class ModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelTest, ForwardProducesLogitsPerClass) {
  const ModelCase& c = GetParam();
  Rng rng(5);
  nn::Network net = c.make(c.input, rng);
  const Shape in{2, c.input.channels, c.input.size, c.input.size};
  EXPECT_EQ(net.output_shape(in), Shape({2, c.input.classes}));

  Tensor x(in);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.uniform(0.0F, 1.0F);
  }
  const Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), Shape({2, c.input.classes}));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_FALSE(std::isnan(logits[i])) << c.name;
  }
}

TEST_P(ModelTest, HasTrainableParameters) {
  const ModelCase& c = GetParam();
  Rng rng(6);
  nn::Network net = c.make(c.input, rng);
  const auto params = net.params();
  const auto grads = net.grads();
  EXPECT_EQ(params.size(), grads.size());
  EXPECT_GT(params.size(), 2U);
  std::int64_t total = 0;
  for (const Tensor* p : params) total += p->numel();
  EXPECT_GT(total, 100) << c.name;
}

TEST_P(ModelTest, CostPositiveAndDeterministic) {
  const ModelCase& c = GetParam();
  Rng rng(7);
  const nn::Network net = c.make(c.input, rng);
  const Shape in{1, c.input.channels, c.input.size, c.input.size};
  const nn::CostStats s = net.cost(in);
  EXPECT_GT(s.macs, 0) << c.name;
  EXPECT_GT(s.weight_bytes, 0);
  EXPECT_GT(s.activation_bytes, 0);
  EXPECT_EQ(net.cost(in).macs, s.macs);
}

TEST_P(ModelTest, BackwardRunsAfterTrainForward) {
  const ModelCase& c = GetParam();
  Rng rng(8);
  nn::Network net = c.make(c.input, rng);
  Tensor x(Shape{2, c.input.channels, c.input.size, c.input.size});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.uniform(0.0F, 1.0F);
  }
  const Tensor logits = net.forward(x, /*train=*/true);
  Tensor grad(logits.shape());
  grad.fill(0.01F);
  const Tensor grad_in = net.backward(grad);
  EXPECT_EQ(grad_in.shape(), x.shape());
}

TEST_P(ModelTest, DifferentSeedsGiveDifferentModels) {
  const ModelCase& c = GetParam();
  Rng rng_a(1), rng_b(2);
  nn::Network a = c.make(c.input, rng_a);
  nn::Network b = c.make(c.input, rng_b);
  Tensor x(Shape{1, c.input.channels, c.input.size, c.input.size});
  Rng rng(3);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.uniform(0.0F, 1.0F);
  }
  EXPECT_FALSE(allclose(a.forward(x), b.forward(x), 1e-4F)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelTest,
    ::testing::Values(
        ModelCase{"lenet5", InputSpec{1, 16, 10}, make_lenet5},
        ModelCase{"convnet", InputSpec{3, 16, 10}, make_convnet},
        ModelCase{"resnet20", InputSpec{3, 16, 10}, make_resnet20},
        ModelCase{"densenet", InputSpec{3, 16, 10}, make_densenet},
        ModelCase{"alexnet", InputSpec{3, 24, 20}, make_alexnet},
        ModelCase{"resnet34", InputSpec{3, 24, 20}, make_resnet34}),
    ::testing::PrintToStringParamName());

TEST(ModelDepthTest, ResNet34IsDeeperThanResNet20Lite) {
  Rng rng(9);
  const InputSpec cifar{3, 16, 10};
  const InputSpec imagenet{3, 24, 20};
  nn::Network r20 = make_resnet20(cifar, rng);
  nn::Network r34 = make_resnet34(imagenet, rng);
  const std::int64_t macs20 = r20.cost(Shape{1, 3, 16, 16}).macs;
  const std::int64_t macs34 = r34.cost(Shape{1, 3, 24, 24}).macs;
  EXPECT_GT(macs34, macs20);
}

TEST(ModelCostTest, DenseNetCostsMoreThanConvNet) {
  // Mirrors the paper's ResNet20-vs-DenseNet40 cost discussion: richer
  // connectivity costs more MACs on the same input.
  Rng rng(10);
  const InputSpec cifar{3, 16, 10};
  nn::Network convnet = make_convnet(cifar, rng);
  nn::Network densenet = make_densenet(cifar, rng);
  EXPECT_GT(densenet.cost(Shape{1, 3, 16, 16}).macs,
            convnet.cost(Shape{1, 3, 16, 16}).macs);
}

}  // namespace
}  // namespace pgmr::zoo
