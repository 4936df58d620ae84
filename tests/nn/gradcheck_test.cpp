// Numerical gradient verification for every trainable layer.
//
// For a layer L, random input x and a fixed random projection R, define the
// scalar loss f(x, theta) = sum(R .* L(x; theta)). Backprop with dL/dy = R
// must then match central-difference derivatives of f in both the input and
// every parameter. This is the strongest single invariant of the nn module:
// if it holds, training converges for the right reason.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::nn {
namespace {

struct LayerCase {
  std::string name;
  Shape input_shape;
  std::function<std::unique_ptr<Layer>(Rng&)> make;
};

// gtest prints a parameter into the test listing; the default byte dump
// would carry the name's heap pointer and change on every run.
void PrintTo(const LayerCase& c, std::ostream* os) { *os << c.name; }

Tensor random_tensor(const Shape& s, Rng& rng, float lo = -1.0F,
                     float hi = 1.0F) {
  Tensor t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
  return t;
}

float projected_output(Layer& layer, const Tensor& x, const Tensor& r) {
  const Tensor y = layer.forward(x, /*train=*/true);
  float acc = 0.0F;
  for (std::int64_t i = 0; i < y.numel(); ++i) acc += y[i] * r[i];
  return acc;
}

class GradCheckTest : public ::testing::TestWithParam<LayerCase> {};

TEST_P(GradCheckTest, InputAndParamGradientsMatchNumeric) {
  const LayerCase& c = GetParam();
  Rng rng(31);
  auto layer = c.make(rng);
  Tensor x = random_tensor(c.input_shape, rng);
  const Shape out_shape = layer->output_shape(c.input_shape);
  const Tensor r = random_tensor(out_shape, rng);

  // Analytic gradients.
  projected_output(*layer, x, r);
  for (Tensor* g : layer->grads()) g->fill(0.0F);
  // Re-run forward so caches match the gradient accumulation below.
  projected_output(*layer, x, r);
  const Tensor grad_in = layer->backward(r);
  ASSERT_EQ(grad_in.shape(), x.shape());

  const float tol = 2e-2F;

  // Central difference at two step sizes. ReLU-style kinks make the
  // difference quotient step-size dependent; such coordinates are not
  // differentiable points and are skipped (standard gradient-checker
  // practice). Smooth coordinates must agree across steps and with the
  // analytic gradient.
  std::int64_t checked = 0;
  auto check_coord = [&](float& slot, float analytic, const char* what,
                         std::int64_t i) {
    const float saved = slot;
    auto numeric_at = [&](float eps) {
      slot = saved + eps;
      const float fp = projected_output(*layer, x, r);
      slot = saved - eps;
      const float fm = projected_output(*layer, x, r);
      slot = saved;
      return (fp - fm) / (2.0F * eps);
    };
    const float coarse = numeric_at(1e-2F);
    const float fine = numeric_at(5e-3F);
    if (std::fabs(coarse - fine) >
        0.3F * tol * std::max(1.0F, std::fabs(fine))) {
      return;  // non-smooth point (activation kink under perturbation)
    }
    ++checked;
    EXPECT_NEAR(analytic, fine, tol * std::max(1.0F, std::fabs(fine)))
        << c.name << " " << what << " coord " << i;
  };

  // Check a deterministic subset of input coordinates (all when small).
  const std::int64_t n_in = x.numel();
  const std::int64_t stride_in = std::max<std::int64_t>(1, n_in / 40);
  for (std::int64_t i = 0; i < n_in; i += stride_in) {
    check_coord(x[i], grad_in[i], "input", i);
  }

  // Check parameter gradients.
  const auto params = layer->params();
  const auto grads = layer->grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    const Tensor& g = *grads[p];
    const std::int64_t n_w = w.numel();
    const std::int64_t stride_w = std::max<std::int64_t>(1, n_w / 30);
    for (std::int64_t i = 0; i < n_w; i += stride_w) {
      check_coord(w[i], g[i], "param", i);
    }
  }
  // The skip rule must not have silently voided the test.
  EXPECT_GT(checked, 10) << c.name;
}

std::unique_ptr<Sequential> make_body(std::int64_t in_c, std::int64_t out_c,
                                      std::int64_t stride, Rng& rng) {
  auto body = std::make_unique<Sequential>();
  auto c1 = std::make_unique<Conv2D>(in_c, out_c, 3, stride, 1);
  c1->init(rng);
  body->add(std::move(c1));
  body->add(std::make_unique<ReLU>());
  auto c2 = std::make_unique<Conv2D>(out_c, out_c, 3, 1, 1);
  c2->init(rng);
  body->add(std::move(c2));
  return body;
}

INSTANTIATE_TEST_SUITE_P(
    Layers, GradCheckTest,
    ::testing::Values(
        LayerCase{"conv_3x3_pad", Shape{2, 3, 6, 6},
                  [](Rng& rng) {
                    auto l = std::make_unique<Conv2D>(3, 4, 3, 1, 1);
                    l->init(rng);
                    return l;
                  }},
        LayerCase{"conv_5x5_stride2", Shape{2, 2, 9, 9},
                  [](Rng& rng) {
                    auto l = std::make_unique<Conv2D>(2, 3, 5, 2, 2);
                    l->init(rng);
                    return l;
                  }},
        LayerCase{"conv_1x1", Shape{2, 4, 4, 4},
                  [](Rng& rng) {
                    auto l = std::make_unique<Conv2D>(4, 2, 1, 1, 0);
                    l->init(rng);
                    return l;
                  }},
        LayerCase{"dense", Shape{3, 10},
                  [](Rng& rng) {
                    auto l = std::make_unique<Dense>(10, 7);
                    l->init(rng);
                    return l;
                  }},
        LayerCase{"relu", Shape{2, 3, 4, 4},
                  [](Rng&) { return std::make_unique<ReLU>(); }},
        LayerCase{"maxpool2", Shape{2, 3, 6, 6},
                  [](Rng&) { return std::make_unique<MaxPool2D>(2); }},
        LayerCase{"globalavgpool", Shape{2, 5, 4, 4},
                  [](Rng&) { return std::make_unique<GlobalAvgPool>(); }},
        LayerCase{"flatten", Shape{2, 3, 4, 4},
                  [](Rng&) { return std::make_unique<Flatten>(); }},
        LayerCase{"batchnorm_4d", Shape{4, 3, 5, 5},
                  [](Rng&) { return std::make_unique<BatchNorm>(3); }},
        LayerCase{"batchnorm_2d", Shape{6, 5},
                  [](Rng&) { return std::make_unique<BatchNorm>(5); }},
        LayerCase{"sequential_conv_relu_dense", Shape{2, 2, 4, 4},
                  [](Rng& rng) {
                    auto seq = std::make_unique<Sequential>();
                    auto conv = std::make_unique<Conv2D>(2, 3, 3, 1, 1);
                    conv->init(rng);
                    seq->add(std::move(conv));
                    seq->add(std::make_unique<ReLU>());
                    seq->add(std::make_unique<Flatten>());
                    auto fc = std::make_unique<Dense>(3 * 4 * 4, 5);
                    fc->init(rng);
                    seq->add(std::move(fc));
                    return seq;
                  }},
        LayerCase{"residual_identity", Shape{2, 3, 4, 4},
                  [](Rng& rng) {
                    return std::make_unique<ResidualBlock>(
                        make_body(3, 3, 1, rng), nullptr);
                  }},
        LayerCase{"residual_projection", Shape{2, 2, 6, 6},
                  [](Rng& rng) {
                    auto proj = std::make_unique<Conv2D>(2, 4, 1, 2, 0);
                    proj->init(rng);
                    return std::make_unique<ResidualBlock>(
                        make_body(2, 4, 2, rng), std::move(proj));
                  }},
        LayerCase{"denseblock", Shape{2, 3, 4, 4},
                  [](Rng& rng) {
                    std::vector<std::unique_ptr<Sequential>> units;
                    for (int u = 0; u < 2; ++u) {
                      auto unit = std::make_unique<Sequential>();
                      auto conv = std::make_unique<Conv2D>(3 + u * 2, 2, 3, 1, 1);
                      conv->init(rng);
                      unit->add(std::make_unique<ReLU>());
                      unit->add(std::move(conv));
                      units.push_back(std::move(unit));
                    }
                    return std::make_unique<DenseBlock>(std::move(units), 3, 2);
                  }}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace pgmr::nn
