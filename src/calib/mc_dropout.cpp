#include "calib/mc_dropout.h"

#include <stdexcept>

#include "nn/softmax.h"

namespace pgmr::calib {

Tensor mc_dropout_probabilities(nn::Network& net, const Tensor& images,
                                int passes) {
  if (passes < 1) {
    throw std::invalid_argument("mc_dropout: passes must be >= 1");
  }
  // train=true activates dropout masks; each pass draws fresh masks from
  // the layers' internal RNG streams.
  Tensor mean = nn::softmax(net.forward(images, /*train=*/true));
  for (int p = 1; p < passes; ++p) {
    mean += nn::softmax(net.forward(images, /*train=*/true));
  }
  mean *= 1.0F / static_cast<float>(passes);
  return mean;
}

}  // namespace pgmr::calib
