// Adversarial-input generation (paper Section V: Szegedy et al.,
// DeepFool, JSMA family). Implements the fast gradient-sign method so the
// reproduction can ask the natural follow-up question: does PolygraphMR's
// disagreement signal flag adversarial inputs as unreliable?
//
// FGSM: x_adv = clamp(x + eps * sign(d loss / d x)). Requires the loss
// gradient at the *input*, which the nn module's backward pass provides.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.h"

namespace pgmr::adv {

/// Gradient of the mean cross-entropy loss w.r.t. the input batch.
/// Runs forward(train=true) + backward through `net`; parameter gradients
/// are accumulated as a side effect (callers training the net afterwards
/// should zero them).
Tensor input_gradient(nn::Network& net, const Tensor& images,
                      const std::vector<std::int64_t>& labels);

/// Untargeted FGSM attack: perturbs every image by `epsilon` in the
/// direction that increases the loss; output is clamped to [0, 1].
Tensor fgsm_attack(nn::Network& net, const Tensor& images,
                   const std::vector<std::int64_t>& labels, float epsilon);

}  // namespace pgmr::adv
