// Procedural image classification corpora.
//
// These generators are this reproduction's substitute for MNIST, CIFAR-10
// and ImageNet (see DESIGN.md). Each class is a parametric visual
// signature — an oriented stripe field, a ring-positioned disk and (for
// color tiers) a class hue — and each instance perturbs that signature.
// The difficulty knobs map one-to-one to the paper's Fig 3 misprediction
// characteristics:
//   * occlusion_prob / occlusion_size  -> "poor image detail" (Fig 3a)
//   * second_object_prob               -> "multiple objects"  (Fig 3b)
//   * class_similarity                 -> "class similarity"  (Fig 3c)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace pgmr::data {

/// Full parameterization of a synthetic corpus. All randomness flows from
/// `seed`, so a spec generates the identical corpus on every run.
struct SyntheticSpec {
  std::string name = "synthetic";
  std::int64_t channels = 3;
  std::int64_t size = 16;          ///< square image side
  std::int64_t num_classes = 10;
  std::int64_t count = 1000;       ///< number of samples to generate
  std::uint64_t seed = 1;

  // Instance variation.
  float jitter = 0.5F;             ///< signature parameter jitter, 0..1
  float noise_std = 0.05F;         ///< additive Gaussian pixel noise
  float brightness_jitter = 0.1F;  ///< global brightness variation

  // Hard-input knobs (Fig 3 analogues).
  float occlusion_prob = 0.0F;     ///< chance of an occluding patch
  float occlusion_size = 0.3F;     ///< patch side as a fraction of image
  float second_object_prob = 0.0F; ///< chance of blending another class
  float class_similarity = 0.0F;   ///< 0 = well separated, 1 = heavy overlap
};

/// Generates a corpus from `spec`. Labels are balanced round-robin.
Dataset generate_synthetic(const SyntheticSpec& spec);

/// The corpus generate_synthetic(spec) would return, cut into consecutive
/// parts of the given sizes after its first `skip` samples (skip plus the
/// sizes may sum below spec.count), each part rendered into its own buffer.
/// Skipped samples are drawn into one scratch image and dropped. The parts
/// are bit-identical to slicing the full corpus.
std::vector<Dataset> generate_synthetic_parts(
    const SyntheticSpec& spec, const std::vector<std::int64_t>& sizes,
    std::int64_t skip = 0);

/// The three benchmark tiers standing in for the paper's datasets.
/// `count` covers train+val+test; see zoo for the canonical split sizes.

/// MNIST stand-in: 1x16x16, 10 classes, easy (LeNet-tier ~99 %).
SyntheticSpec smnist_spec(std::int64_t count, std::uint64_t seed = 11);

/// CIFAR-10 stand-in: 3x16x16, 10 classes, moderate difficulty.
SyntheticSpec scifar_spec(std::int64_t count, std::uint64_t seed = 22);

/// ImageNet stand-in: 3x24x24, 20 classes, high similarity and clutter.
SyntheticSpec simagenet_spec(std::int64_t count, std::uint64_t seed = 33);

}  // namespace pgmr::data
