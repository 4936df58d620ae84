#include "quant/quantized_network.h"

#include <algorithm>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/softmax.h"
#include "tensor/crc32.h"

namespace pgmr::quant {

namespace {

constexpr std::int64_t kChunk = QuantizedNetwork::kCrcChunkElems;

/// CRC chunks a tensor of `numel` floats is blessed as (at least one).
std::size_t chunk_count(std::int64_t numel) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, (numel + kChunk - 1) / kChunk));
}

std::uint32_t chunk_crc(const Tensor& p, std::size_t chunk) {
  const std::int64_t at = static_cast<std::int64_t>(chunk) * kChunk;
  const std::int64_t len = std::min(kChunk, p.numel() - at);
  return crc32(p.data() + at, static_cast<std::size_t>(len) * sizeof(float));
}

/// The golden chunking implies the blessed numel: a live tensor chunked
/// differently has drifted in size — a corruption, never a pass.
bool chunk_matches(const Tensor& p, const std::vector<std::uint32_t>& golden,
                   std::size_t chunk) {
  return chunk < golden.size() && chunk_count(p.numel()) == golden.size() &&
         chunk_crc(p, chunk) == golden[chunk];
}

}  // namespace

QuantizedNetwork::QuantizedNetwork(nn::Network network, int bits,
                                   nn::Protection protection)
    : network_(std::move(network)), bits_(bits), protection_(protection) {
  for (Tensor* p : network_.params()) {
    truncate_tensor(*p, bits_);
  }
  refresh_checksum();
}

void QuantizedNetwork::set_protection(nn::Protection protection) {
  protection_ = protection;
  refresh_checksum();
}

bool QuantizedNetwork::foldable_at(std::size_t l) const {
  // Top-level conv→BN folding skips the activation truncation between the
  // two layers, so it is only bit-identical at full precision; at reduced
  // bits the pair keeps its separate gemm + affine checks instead.
  if (bits_ != kFullBits) return false;
  const auto& layers = network_.layers();
  if (l + 1 >= layers.size()) return false;
  if (layers[l]->kind() != "conv2d" || layers[l + 1]->kind() != "batchnorm") {
    return false;
  }
  const auto* conv = static_cast<const nn::Conv2D*>(layers[l].get());
  const auto* bn = static_cast<const nn::BatchNorm*>(layers[l + 1].get());
  return conv->out_channels() == bn->channels();
}

void QuantizedNetwork::refresh_checksum() {
  auto& layers = network_.mutable_layers();
  layer_golden_.assign(layers.size(), nn::AbftChecksum{});
  switch (protection_) {
    case nn::Protection::off:
      break;
    case nn::Protection::final_fc:
      if (!layers.empty() && layers.back()->kind() == "dense") {
        layer_golden_.back() = layers.back()->abft_checksum();
      }
      break;
    case nn::Protection::full:
      for (std::size_t l = 0; l < layers.size(); ++l) {
        if (foldable_at(l)) {
          const auto* conv = static_cast<const nn::Conv2D*>(layers[l].get());
          const auto* bn =
              static_cast<const nn::BatchNorm*>(layers[l + 1].get());
          Tensor scale, shift;
          bn->effective_affine(&scale, &shift);
          layer_golden_[l] = conv->abft_checksum_folded(scale, shift);
          ++l;  // the BN slot stays empty: the fold covers it
          continue;
        }
        layer_golden_[l] = layers[l]->abft_checksum();
      }
      break;
  }
  golden_chunk_crcs_.clear();
  for (Tensor* p : network_.params()) {
    std::vector<std::uint32_t> chunks(chunk_count(p->numel()));
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      chunks[c] = chunk_crc(*p, c);
    }
    golden_chunk_crcs_.push_back(std::move(chunks));
  }
}

bool QuantizedNetwork::params_intact() { return first_corrupt_param() < 0; }

std::size_t QuantizedNetwork::param_chunk_count(std::size_t i) const {
  return i < golden_chunk_crcs_.size() ? golden_chunk_crcs_[i].size() : 0;
}

bool QuantizedNetwork::param_chunk_intact(std::size_t i, std::size_t chunk) {
  const std::vector<Tensor*> params = network_.params();
  return i < params.size() && i < golden_chunk_crcs_.size() &&
         chunk_matches(*params[i], golden_chunk_crcs_[i], chunk);
}

int QuantizedNetwork::first_corrupt_param() {
  const std::vector<Tensor*> params = network_.params();
  const std::size_t n = std::min(params.size(), golden_chunk_crcs_.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < golden_chunk_crcs_[i].size(); ++c) {
      if (!chunk_matches(*params[i], golden_chunk_crcs_[i], c)) {
        return static_cast<int>(i);
      }
    }
  }
  // A live/golden tensor-count drift is itself a corruption signal.
  if (params.size() != golden_chunk_crcs_.size()) return static_cast<int>(n);
  return -1;
}

Tensor QuantizedNetwork::forward(const Tensor& input, AbftCheck* abft) {
  if (abft != nullptr) *abft = AbftCheck{};
  Tensor x = input;
  truncate_tensor(x, bits_);
  auto& layers = network_.mutable_layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const bool verify = abft != nullptr && l < layer_golden_.size() &&
                        !layer_golden_[l].empty();
    if (!verify) {
      x = layers[l]->forward(x, /*train=*/false);
      truncate_tensor(x, bits_);
      if (tap_) tap_(x, static_cast<int>(l));
      continue;
    }
    // Verification runs on the pre-truncation output (truncation would add
    // its own error on top of the GEMM's).
    nn::AbftLayerCheck check;
    if (layer_golden_[l].form == nn::AbftForm::folded) {
      // Folded conv→BN: run both layers as one verified unit against the
      // BatchNorm output (only emitted at kFullBits, where skipping the
      // inter-layer truncation is the identity).
      auto* conv = static_cast<nn::Conv2D*>(layers[l].get());
      x = conv->forward_folded(x, *layers[l + 1], layer_golden_[l], &check);
      if (check.checked) {
        abft->checked = true;
        ++abft->layers_checked;
        abft->max_rel_error =
            std::max(abft->max_rel_error, check.max_rel_error);
        if (!check.ok && abft->ok) {
          abft->ok = false;
          abft->failed_layer = static_cast<int>(l);
          abft->failed_kind = "conv2d+batchnorm";
        }
      }
      truncate_tensor(x, bits_);
      // The folded pair taps once, on the BN output, at the conv's index.
      if (tap_) tap_(x, static_cast<int>(l));
      ++l;
      continue;
    }
    x = layers[l]->forward_abft(x, layer_golden_[l], &check);
    if (check.checked) {
      abft->checked = true;
      ++abft->layers_checked;
      abft->max_rel_error =
          std::max(abft->max_rel_error, check.max_rel_error);
      if (!check.ok && abft->ok) {
        abft->ok = false;
        abft->failed_layer = static_cast<int>(l);
        abft->failed_kind = layers[l]->kind();
      }
    }
    truncate_tensor(x, bits_);
    if (tap_) tap_(x, static_cast<int>(l));
  }
  return x;
}

Tensor QuantizedNetwork::probabilities(const Tensor& input, AbftCheck* abft) {
  return nn::softmax(forward(input, abft));
}

}  // namespace pgmr::quant
