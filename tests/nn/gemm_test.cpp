// GEMM kernels vs. a naive triple-loop reference.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/random.h"

namespace pgmr::nn {
namespace {

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (float& v : m) v = rng.uniform(-1.0F, 1.0F);
  return m;
}

// Reference C[M,N] += A[M,K] B[K,N].
std::vector<float> reference(const std::vector<float>& a,
                             const std::vector<float>& b, std::int64_t m,
                             std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-4F) << "at " << i;
  }
}

struct GemmShape {
  std::int64_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, AccumulateMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(1);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  gemm_accumulate(a.data(), b.data(), c.data(), m, k, n);
  expect_close(c, reference(a, b, m, k, n));
}

TEST_P(GemmTest, AtBMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(2);
  // A stored as [K, M]; logical operand is A^T.
  const auto a_t = random_matrix(k, m, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) a[i * k + p] = a_t[p * m + i];
  }
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  gemm_at_b(a_t.data(), b.data(), c.data(), m, k, n);
  expect_close(c, reference(a, b, m, k, n));
}

TEST_P(GemmTest, ABtMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(3);
  const auto a = random_matrix(m, k, rng);
  // B stored as [N, K]; logical operand is B^T.
  const auto b_t = random_matrix(n, k, rng);
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) b[p * n + j] = b_t[j * k + p];
  }
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  gemm_a_bt(a.data(), b_t.data(), c.data(), m, k, n);
  expect_close(c, reference(a, b, m, k, n));
}

TEST(GemmTest, AccumulatesOntoExistingValues) {
  const std::vector<float> a = {1.0F, 2.0F};      // [1,2]
  const std::vector<float> b = {3.0F, 4.0F};      // [2,1]
  std::vector<float> c = {10.0F};                 // [1,1]
  gemm_accumulate(a.data(), b.data(), c.data(), 1, 2, 1);
  EXPECT_FLOAT_EQ(c[0], 10.0F + 11.0F);
}

TEST(GemmTest, ZeroWeightTermsAreSkipped) {
  // gemm_accumulate never adds a term whose A element is zero: a NaN or
  // inf in B behind a zero weight does not reach C, and a -0.0 in C keeps
  // its sign (adding +0.0 * b would turn it into +0.0). The fast conv GEMM
  // (conv_forward) reproduces this; the non-finite detector and the MR vote
  // see the same outputs under activation corruption either way.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a = {0.0F, -0.0F,   // row 0: zero weights only
                                1.0F, 0.0F};   // row 1: one live weight
  const std::vector<float> b = {nan, inf, -inf,   // [2,3]
                                1.0F, nan, 2.0F};
  std::vector<float> c = {-0.0F, -0.0F, 5.0F,
                          -0.0F, 1.0F, 1.0F};
  gemm_accumulate(a.data(), b.data(), c.data(), 2, 2, 3);
  EXPECT_TRUE(std::signbit(c[0]) && c[0] == 0.0F);
  EXPECT_TRUE(std::signbit(c[1]) && c[1] == 0.0F);
  EXPECT_EQ(c[2], 5.0F);
  // Row 1 takes only column p = 0 of B: NaN, inf and -inf reach C.
  EXPECT_TRUE(std::isnan(c[3]));
  EXPECT_EQ(c[4], inf);
  EXPECT_EQ(c[5], -inf);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTest,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 5, 2},
                                           GemmShape{8, 8, 8},
                                           GemmShape{16, 27, 64},
                                           GemmShape{5, 1, 7},
                                           GemmShape{1, 32, 1}));

}  // namespace
}  // namespace pgmr::nn
