#include "adv/fgsm.h"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.h"

namespace pgmr::adv {

Tensor input_gradient(nn::Network& net, const Tensor& images,
                      const std::vector<std::int64_t>& labels) {
  const Tensor logits = net.forward(images, /*train=*/true);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  return net.backward(loss.grad_logits);
}

Tensor fgsm_attack(nn::Network& net, const Tensor& images,
                   const std::vector<std::int64_t>& labels, float epsilon) {
  if (epsilon < 0.0F) throw std::invalid_argument("fgsm: negative epsilon");
  const Tensor grad = input_gradient(net, images, labels);
  Tensor adv = images;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const float sign = grad[i] > 0.0F ? 1.0F : (grad[i] < 0.0F ? -1.0F : 0.0F);
    adv[i] = std::clamp(adv[i] + epsilon * sign, 0.0F, 1.0F);
  }
  return adv;
}

}  // namespace pgmr::adv
