#include "nn/layer.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"

namespace pgmr::nn {

CostStats Layer::cost(const Shape& in) const {
  // Default for parameter-free elementwise layers: activation traffic only.
  CostStats s;
  s.activation_bytes = 2 * in.numel() * 4;
  return s;
}

Tensor Layer::forward_abft(const Tensor& input, const AbftChecksum& golden,
                           AbftLayerCheck* check) {
  // Default for layers without GEMM support: plain eval-mode forward.
  (void)golden;
  (void)check;
  return forward(input, /*train=*/false);
}

void save_layer(BinaryWriter& w, const Layer& layer) {
  w.write_string(layer.kind());
  layer.save(w);
}

std::unique_ptr<Layer> load_layer(BinaryReader& r) {
  const std::string kind = r.read_string();
  if (kind == "conv2d") return Conv2D::load(r);
  if (kind == "dense") return Dense::load(r);
  if (kind == "relu") return ReLU::load(r);
  if (kind == "dropout") return Dropout::load(r);
  if (kind == "maxpool2d") return MaxPool2D::load(r);
  if (kind == "globalavgpool") return GlobalAvgPool::load(r);
  if (kind == "flatten") return Flatten::load(r);
  if (kind == "batchnorm") return BatchNorm::load(r);
  if (kind == "sequential") return Sequential::load(r);
  if (kind == "residual") return ResidualBlock::load(r);
  if (kind == "denseblock") return DenseBlock::load(r);
  throw std::runtime_error("load_layer: unknown layer kind '" + kind + "'");
}

}  // namespace pgmr::nn
