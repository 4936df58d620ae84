// Forward-semantics unit tests for individual layers.
#include <gtest/gtest.h>

#include <cstring>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu;
  const Tensor x(Shape{1, 4}, {-1.0F, 0.0F, 0.5F, 2.0F});
  const Tensor y = relu.forward(x, false);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 0.5F);
  EXPECT_EQ(y[3], 2.0F);
}

TEST(MaxPoolTest, PicksWindowMaxima) {
  MaxPool2D pool(2);
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0F);
  EXPECT_EQ(y[1], 7.0F);
  EXPECT_EQ(y[2], 13.0F);
  EXPECT_EQ(y[3], 15.0F);
}

TEST(MaxPoolTest, RejectsIndivisibleInput) {
  MaxPool2D pool(2);
  const Tensor x(Shape{1, 1, 5, 4});
  EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
}

TEST(MaxPoolTest, BackwardRoutesToArgmaxOnly) {
  MaxPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0F, 4.0F, 2.0F, 3.0F});
  pool.forward(x, true);
  const Tensor dy(Shape{1, 1, 1, 1}, {5.0F});
  const Tensor dx = pool.backward(dy);
  EXPECT_EQ(dx[0], 0.0F);
  EXPECT_EQ(dx[1], 5.0F);  // the max (4.0) gets the whole gradient
  EXPECT_EQ(dx[2], 0.0F);
  EXPECT_EQ(dx[3], 0.0F);
}

TEST(GlobalAvgPoolTest, AveragesPlanes) {
  GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x[i] = 2.0F;       // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x[i] = static_cast<float>(i);  // 4..7
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0F);
  EXPECT_FLOAT_EQ(y[1], 5.5F);
}

TEST(FlattenTest, ReshapesAndRestores) {
  Flatten flatten;
  Tensor x(Shape{2, 3, 2, 2});
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  const Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(DropoutTest, IdentityAtInference) {
  Dropout dropout(0.5F, 1);
  Tensor x(Shape{1, 100});
  x.fill(1.0F);
  const Tensor y = dropout.forward(x, false);
  EXPECT_TRUE(allclose(x, y, 0.0F));
}

TEST(DropoutTest, DropsAndRescalesInTraining) {
  Dropout dropout(0.5F, 1);
  Tensor x(Shape{1, 2000});
  x.fill(1.0F);
  const Tensor y = dropout.forward(x, true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0F) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0F);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 2000.0, 0.5, 0.05);
}

TEST(DropoutTest, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(-0.1F, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0F, 1), std::invalid_argument);
}

TEST(Conv2DTest, KnownConvolution) {
  // Single 2x2 input, 2x2 kernel of ones, no padding: output = sum.
  Conv2D conv(1, 1, 2, 1, 0);
  for (Tensor* p : conv.params()) p->fill(0.0F);
  conv.params()[0]->fill(1.0F);
  const Tensor x(Shape{1, 1, 2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.0F);
}

TEST(Conv2DTest, BiasIsAdded) {
  Conv2D conv(1, 2, 1, 1, 0);
  conv.params()[0]->fill(0.0F);   // weights
  (*conv.params()[1])[0] = 3.0F;  // bias channel 0
  (*conv.params()[1])[1] = -1.0F;
  const Tensor x(Shape{1, 1, 2, 2});
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 3.0F);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -1.0F);
}

TEST(Conv2DTest, RejectsWrongChannelCount) {
  Conv2D conv(3, 4, 3, 1, 1);
  const Tensor x(Shape{1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x, false), std::invalid_argument);
}

TEST(Conv2DTest, CostCountsMacs) {
  Conv2D conv(3, 8, 3, 1, 1);
  const CostStats s = conv.cost(Shape{1, 3, 16, 16});
  EXPECT_EQ(s.macs, 8 * 16 * 16 * 27);
  EXPECT_EQ(s.param_count, 8 * 27 + 8);
}

TEST(DenseTest, KnownAffine) {
  Dense dense(2, 2);
  Tensor& w = *dense.params()[0];
  w.at(0, 0) = 1.0F;
  w.at(0, 1) = 2.0F;
  w.at(1, 0) = -1.0F;
  w.at(1, 1) = 0.5F;
  (*dense.params()[1])[0] = 1.0F;
  const Tensor x(Shape{1, 2}, {3.0F, 4.0F});
  const Tensor y = dense.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0F + 8.0F + 1.0F);
  EXPECT_FLOAT_EQ(y.at(0, 1), -3.0F + 2.0F);
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm bn(2);
  Rng rng(5);
  Tensor x(Shape{64, 2});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.normal(3.0F, 2.0F);
  }
  const Tensor y = bn.forward(x, true);
  // Per-feature mean ~0, variance ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t f = 0; f < 2; ++f) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t n = 0; n < 64; ++n) mean += y.at(n, f);
    mean /= 64.0;
    for (std::int64_t n = 0; n < 64; ++n) {
      var += (y.at(n, f) - mean) * (y.at(n, f) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  BatchNorm bn(1);
  Tensor x(Shape{8, 1});
  for (std::int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  // Accumulate running stats over several passes.
  for (int i = 0; i < 50; ++i) bn.forward(x, true);
  const Tensor y = bn.forward(x, false);
  // Inference output should also be roughly normalized (same batch).
  double mean = 0.0;
  for (std::int64_t i = 0; i < 8; ++i) mean += y[i];
  EXPECT_NEAR(mean / 8.0, 0.0, 0.1);
}

TEST(BatchNormTest, InferenceIsBitIdenticalToTrainingArithmetic) {
  // With momentum 1 one training pass leaves the running statistics equal
  // to the batch statistics, so inference on the same batch must repeat
  // the training path's (x - mean) / std, gamma * . + beta exactly.
  Rng rng(13);
  for (const Shape& shape : {Shape{3, 5, 4, 6}, Shape{7, 5}}) {
    BatchNorm bn(5, /*momentum=*/1.0F);
    for (Tensor* p : bn.params()) {
      for (std::int64_t c = 0; c < 5; ++c) (*p)[c] = rng.uniform(-2.0F, 2.0F);
    }
    Tensor x(shape);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = rng.normal(0.5F, 3.0F);
    }
    const Tensor trained = bn.forward(x, true);
    const Tensor inferred = bn.forward(x, false);
    ASSERT_EQ(inferred.shape(), shape);
    EXPECT_EQ(std::memcmp(inferred.data(), trained.data(),
                          sizeof(float) * static_cast<std::size_t>(x.numel())),
              0)
        << shape.to_string();
  }
}

TEST(BatchNormTest, RejectsWrongChannels) {
  BatchNorm bn(3);
  const Tensor x(Shape{2, 4, 2, 2});
  EXPECT_THROW(bn.forward(x, true), std::invalid_argument);
}

}  // namespace
}  // namespace pgmr::nn
