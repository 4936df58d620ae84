// Cross-validates the im2col+GEMM Conv2D against a naive direct
// convolution over randomized geometries (parameterized sweep).
#include <gtest/gtest.h>

#include "nn/conv2d.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

struct ConvCase {
  std::string name;
  std::int64_t batch, in_c, out_c, hw, kernel, stride, pad;
};

// gtest prints a parameter into the test listing; the default byte dump
// would carry the name's heap pointer and change on every run.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

// Direct convolution: out[n,oc,y,x] = b[oc] + sum_{c,ky,kx} w * in.
Tensor direct_conv(const Tensor& input, const Tensor& weight,
                   const Tensor& bias, const ConvCase& c) {
  const std::int64_t oh = (c.hw + 2 * c.pad - c.kernel) / c.stride + 1;
  Tensor out(Shape{c.batch, c.out_c, oh, oh});
  for (std::int64_t n = 0; n < c.batch; ++n) {
    for (std::int64_t oc = 0; oc < c.out_c; ++oc) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < oh; ++x) {
          float acc = bias[oc];
          for (std::int64_t ic = 0; ic < c.in_c; ++ic) {
            for (std::int64_t ky = 0; ky < c.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < c.kernel; ++kx) {
                const std::int64_t iy = y * c.stride + ky - c.pad;
                const std::int64_t ix = x * c.stride + kx - c.pad;
                if (iy < 0 || iy >= c.hw || ix < 0 || ix >= c.hw) continue;
                const float w = weight.at(
                    oc, (ic * c.kernel + ky) * c.kernel + kx);
                acc += w * input.at(n, ic, iy, ix);
              }
            }
          }
          out.at(n, oc, y, x) = acc;
        }
      }
    }
  }
  return out;
}

class ConvReferenceTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvReferenceTest, MatchesDirectConvolution) {
  const ConvCase& c = GetParam();
  Rng rng(99);
  Conv2D conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
  conv.init(rng);
  Tensor input(Shape{c.batch, c.in_c, c.hw, c.hw});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = rng.uniform(-1.0F, 1.0F);
  }
  const Tensor fast = conv.forward(input, false);
  const Tensor reference =
      direct_conv(input, *conv.params()[0], *conv.params()[1], c);
  ASSERT_EQ(fast.shape(), reference.shape());
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    ASSERT_NEAR(fast[i], reference[i], 1e-4F) << c.name << " elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvReferenceTest,
    ::testing::Values(ConvCase{"same_3x3", 2, 3, 4, 8, 3, 1, 1},
                      ConvCase{"valid_5x5", 1, 2, 3, 9, 5, 1, 0},
                      ConvCase{"strided", 2, 4, 4, 8, 3, 2, 1},
                      ConvCase{"pointwise", 3, 5, 2, 6, 1, 1, 0},
                      ConvCase{"big_pad", 1, 1, 1, 5, 3, 1, 2},
                      ConvCase{"stride2_5x5", 1, 3, 2, 12, 5, 2, 2}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace pgmr::nn
