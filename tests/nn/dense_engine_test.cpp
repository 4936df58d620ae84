// The fast dense forward against its scalar oracle, bit for bit:
// gemm_a_bt_bias vs bias-fill + gemm_a_bt, and Dense::forward on every
// dense shape of the zoo. Every comparison is a memcmp.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "nn/dense.h"
#include "nn/forward_engine.h"
#include "nn/gemm.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

::testing::AssertionResult same_bits(const float* a, const float* b,
                                     std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " of " << n << ": " << a[i] << " vs "
             << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The platform's own NaN, made at run time, so that every NaN in play has
/// one bit pattern (IEEE 754 leaves the payload of NaN op NaN open).
float runtime_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

std::vector<float> oracle(const std::vector<float>& x,
                          const std::vector<float>& w,
                          const std::vector<float>& bias, std::int64_t m,
                          std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = bias[j];
  }
  gemm_a_bt(x.data(), w.data(), c.data(), m, k, n);
  return c;
}

TEST(DenseEngineTest, MatchesOracleOnRaggedBlocks) {
  // Output counts across two blocks of eight, batch 1 and 4, every input
  // width up to 40 and a few wider (the compiled oracle's rounding can
  // depend on where k falls relative to its vector width), and inputs
  // holding NaN, +-inf and -0.0 next to zero weights (the dense oracle
  // adds every term, zero weight or not).
  Rng rng(3);
  const float specials[] = {runtime_nan(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0F};
  for (const std::int64_t m : {1, 4}) {
    for (std::int64_t n = 1; n <= 17; ++n) {
      for (std::int64_t k = 1; k <= 72; k += k < 40 ? 1 : 8) {
        std::vector<float> x(static_cast<std::size_t>(m * k));
        std::vector<float> w(static_cast<std::size_t>(n * k));
        std::vector<float> bias(static_cast<std::size_t>(n));
        for (float& v : x) {
          v = rng.bernoulli(0.05) ? specials[rng.randint(0, 3)]
                                  : rng.uniform(-1, 1);
        }
        for (float& v : w) v = rng.bernoulli(0.1) ? 0.0F : rng.uniform(-1, 1);
        for (float& v : bias) v = rng.bernoulli(0.2) ? -0.0F : rng.uniform(-1, 1);
        const std::vector<float> want = oracle(x, w, bias, m, k, n);
        std::vector<float> got(static_cast<std::size_t>(m * n), 42.0F);
        gemm_a_bt_bias(x.data(), w.data(), bias.data(), got.data(), m, k, n);
        ASSERT_TRUE(same_bits(got.data(), want.data(), m * n))
            << "m " << m << " k " << k << " n " << n;
      }
    }
  }
}

TEST(DenseEngineTest, ForwardMatchesOracleOnZooShapes) {
  // in -> out features of every Dense in src/zoo/models.cpp at its served
  // input size: lenet5, convnet, resnet20, densenet40, alexnet, resnet34.
  const std::int64_t shapes[][2] = {{192, 64}, {64, 10}, {256, 10}, {24, 10},
                                    {33, 10},  {216, 96}, {96, 20}, {24, 20}};
  Rng rng(17);
  for (const auto& shape : shapes) {
    for (const std::int64_t batch : {1, 4, 16}) {
      Dense dense(shape[0], shape[1]);
      dense.init(rng);
      Tensor& bias = *dense.params()[1];
      for (std::int64_t f = 0; f < shape[1]; ++f) {
        bias[f] = rng.uniform(-0.5F, 0.5F);
      }
      Tensor input(Shape{batch, shape[0]});
      for (std::int64_t i = 0; i < input.numel(); ++i) {
        input[i] = rng.uniform(-1.0F, 1.0F);
      }
      const Tensor& weight = *dense.params()[0];
      const std::vector<float> want = oracle(
          std::vector<float>(input.data(), input.data() + input.numel()),
          std::vector<float>(weight.data(), weight.data() + weight.numel()),
          std::vector<float>(bias.data(), bias.data() + bias.numel()), batch,
          shape[0], shape[1]);
      const Tensor got = dense.forward(input, /*train=*/false);
      EXPECT_TRUE(same_bits(got.data(), want.data(), batch * shape[1]))
          << shape[0] << " -> " << shape[1] << " at batch " << batch;
    }
  }
}

}  // namespace
}  // namespace pgmr::nn
