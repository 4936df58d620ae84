// Monte-Carlo dropout uncertainty (Gal & Ghahramani, ICML 2016 — cited in
// the paper's Section V as the 10-100x-overhead alternative family).
//
// Runs several stochastic forward passes with dropout active and averages
// the softmax outputs; the averaged top-1 probability is the uncertainty
// gate. Only meaningful for networks that (a) contain Dropout layers and
// (b) contain no BatchNorm (train-mode forward would otherwise switch BN
// to batch statistics) — of the zoo recipes that is exactly alexnet.
#pragma once

#include <cstdint>

#include "nn/network.h"

namespace pgmr::calib {

/// Mean softmax over `passes` dropout-active forward passes, [N, C].
/// Passes must be >= 1; with a dropout-free network every pass is
/// identical and the result equals Network::probabilities.
Tensor mc_dropout_probabilities(nn::Network& net, const Tensor& images,
                                int passes);

}  // namespace pgmr::calib
