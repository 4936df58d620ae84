// AvgPool2D / Sigmoid / Tanh semantics and gradient checks.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/extra_layers.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

TEST(AvgPoolTest, AveragesWindows) {
  AvgPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 2.0F, 3.0F, 6.0F});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.0F);
}

TEST(AvgPoolTest, BackwardDistributesEvenly) {
  AvgPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2});
  pool.forward(x, true);
  const Tensor dy(Shape{1, 1, 1, 1}, {8.0F});
  const Tensor dx = pool.backward(dy);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(dx[i], 2.0F);
}

TEST(AvgPoolTest, RejectsIndivisibleInput) {
  AvgPool2D pool(3);
  const Tensor x(Shape{1, 1, 4, 4});
  EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
  EXPECT_THROW(AvgPool2D(0), std::invalid_argument);
}

TEST(SigmoidTest, KnownValuesAndRange) {
  Sigmoid sig;
  const Tensor x(Shape{1, 3}, {0.0F, 10.0F, -10.0F});
  const Tensor y = sig.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.5F);
  EXPECT_GT(y[1], 0.99F);
  EXPECT_LT(y[2], 0.01F);
}

TEST(TanhTest, OddSymmetryAndSaturation) {
  Tanh tanh_layer;
  const Tensor x(Shape{1, 3}, {0.0F, 2.0F, -2.0F});
  const Tensor y = tanh_layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_NEAR(y[1], std::tanh(2.0F), 1e-6F);
  EXPECT_FLOAT_EQ(y[1], -y[2]);
}

// Shared numeric gradient check for the smooth activations and avg pool.
template <typename LayerT>
void check_gradient(LayerT& layer, const Shape& in_shape) {
  Rng rng(3);
  Tensor x(in_shape);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-2, 2);
  const Shape out_shape = layer.output_shape(in_shape);
  Tensor r(out_shape);
  for (std::int64_t i = 0; i < r.numel(); ++i) r[i] = rng.uniform(-1, 1);

  auto loss = [&] {
    const Tensor y = layer.forward(x, true);
    float acc = 0.0F;
    for (std::int64_t i = 0; i < y.numel(); ++i) acc += y[i] * r[i];
    return acc;
  };
  loss();
  const Tensor grad = layer.backward(r);
  const float eps = 1e-2F;
  for (std::int64_t i = 0; i < x.numel(); i += 3) {
    const float saved = x[i];
    x[i] = saved + eps;
    const float fp = loss();
    x[i] = saved - eps;
    const float fm = loss();
    x[i] = saved;
    EXPECT_NEAR(grad[i], (fp - fm) / (2 * eps), 2e-2F) << "coord " << i;
  }
}

TEST(ExtraLayerGradients, Sigmoid) {
  Sigmoid layer;
  check_gradient(layer, Shape{2, 8});
}

TEST(ExtraLayerGradients, Tanh) {
  Tanh layer;
  check_gradient(layer, Shape{2, 8});
}

TEST(ExtraLayerGradients, AvgPool) {
  AvgPool2D layer(2);
  check_gradient(layer, Shape{1, 2, 4, 4});
}

}  // namespace
}  // namespace pgmr::nn
