// FGSM adversarial attack tests.
#include "adv/fgsm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::adv {
namespace {

nn::Network make_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 3, 1, 1);
  conv->init(rng);
  layers.push_back(std::move(conv));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(4 * 8 * 8, 3);
  fc->init(rng);
  layers.push_back(std::move(fc));
  return nn::Network("victim", std::move(layers));
}

// Quadrant-brightness toy task (same as network_test's), trained briefly.
void make_task(Tensor& images, std::vector<std::int64_t>& labels,
               std::int64_t n, Rng& rng) {
  images = Tensor(Shape{n, 1, 8, 8});
  labels.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t cls = rng.randint(0, 2);
    labels[static_cast<std::size_t>(i)] = cls;
    for (std::int64_t y = 0; y < 8; ++y) {
      for (std::int64_t x = 0; x < 8; ++x) {
        const bool lit = (cls == 0 && y < 4) || (cls == 1 && y >= 4 && x < 4) ||
                         (cls == 2 && y >= 4 && x >= 4);
        images.at(i, 0, y, x) =
            (lit ? 0.65F : 0.35F) + rng.uniform(-0.05F, 0.05F);
      }
    }
  }
}

nn::Network trained_victim(Tensor& images, std::vector<std::int64_t>& labels) {
  Rng rng(21);
  make_task(images, labels, 192, rng);
  nn::Network net = make_net(22);
  nn::SGD::Config cfg;
  cfg.learning_rate = 0.1F;
  nn::SGD opt(net.params(), net.grads(), cfg);
  for (int epoch = 0; epoch < 12; ++epoch) {
    opt.zero_grad();
    const Tensor logits = net.forward(images, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    net.backward(loss.grad_logits);
    opt.step();
  }
  return net;
}

double accuracy_on(nn::Network& net, const Tensor& images,
                   const std::vector<std::int64_t>& labels) {
  const Tensor logits = net.forward(images, false);
  std::int64_t correct = 0;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    if (logits.argmax_row(static_cast<std::int64_t>(n)) == labels[n]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

TEST(FgsmTest, GradientShapeMatchesInput) {
  Tensor images;
  std::vector<std::int64_t> labels;
  Rng rng(1);
  make_task(images, labels, 8, rng);
  nn::Network net = make_net(2);
  const Tensor grad = input_gradient(net, images, labels);
  EXPECT_EQ(grad.shape(), images.shape());
}

TEST(FgsmTest, PerturbationBoundedAndClamped) {
  Tensor images;
  std::vector<std::int64_t> labels;
  nn::Network net = trained_victim(images, labels);
  const float eps = 0.07F;
  const Tensor adv = fgsm_attack(net, images, labels, eps);
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - images[i]), eps + 1e-6F);
    EXPECT_GE(adv[i], 0.0F);
    EXPECT_LE(adv[i], 1.0F);
  }
}

TEST(FgsmTest, AttackDegradesAccuracy) {
  Tensor images;
  std::vector<std::int64_t> labels;
  nn::Network net = trained_victim(images, labels);
  const double clean = accuracy_on(net, images, labels);
  ASSERT_GT(clean, 0.9);
  // The class signal is a ~0.3 brightness gap, so an eps-0.2 L-inf ball
  // can cross the decision boundary for most inputs.
  const Tensor adv = fgsm_attack(net, images, labels, 0.2F);
  const double attacked = accuracy_on(net, adv, labels);
  EXPECT_LT(attacked, clean - 0.2);
}

TEST(FgsmTest, ZeroEpsilonIsIdentityUpToClamp) {
  Tensor images;
  std::vector<std::int64_t> labels;
  Rng rng(3);
  make_task(images, labels, 8, rng);
  nn::Network net = make_net(4);
  const Tensor adv = fgsm_attack(net, images, labels, 0.0F);
  EXPECT_TRUE(allclose(adv, images, 0.0F));
  EXPECT_THROW(fgsm_attack(net, images, labels, -0.1F),
               std::invalid_argument);
}

}  // namespace
}  // namespace pgmr::adv
