#include "data/synthetic.h"

#include <cmath>
#include <stdexcept>

namespace pgmr::data {
namespace {

constexpr float kPi = 3.14159265358979F;

/// Per-class generative signature.
struct ClassSignature {
  float stripe_angle;  ///< orientation of the stripe field
  float stripe_freq;   ///< spatial frequency of the stripe field
  float disk_phase;    ///< position of the disk on a centered ring
  float hue;           ///< class hue in [0, 1) (color tiers only)
};

ClassSignature signature_for(std::int64_t cls, std::int64_t num_classes) {
  const auto k = static_cast<float>(num_classes);
  const auto c = static_cast<float>(cls);
  ClassSignature s;
  s.stripe_angle = kPi * c / k;
  // Permute the secondary attributes so theta-adjacent classes differ in
  // frequency/phase — similarity then degrades gracefully, not uniformly.
  s.stripe_freq = 1.5F + 2.5F * static_cast<float>((cls * 7) % num_classes) / k;
  s.disk_phase = 2.0F * kPi * static_cast<float>((cls * 3) % num_classes) / k;
  s.hue = c / k;
  return s;
}

/// Instance-level perturbed signature.
struct InstanceParams {
  ClassSignature sig;
  float brightness;
  float disk_radius;
};

InstanceParams perturb(const ClassSignature& base, const SyntheticSpec& spec,
                       Rng& rng) {
  // The similarity knob widens jitter relative to inter-class spacing, so
  // neighbouring classes genuinely overlap in parameter space.
  const float spread = spec.jitter * (1.0F + 2.0F * spec.class_similarity);
  const auto k = static_cast<float>(spec.num_classes);
  InstanceParams p;
  p.sig = base;
  p.sig.stripe_angle += rng.normal(0.0F, spread * kPi / k);
  p.sig.stripe_freq += rng.normal(0.0F, spread * 1.2F / k * 10.0F * 0.25F);
  p.sig.disk_phase += rng.normal(0.0F, spread * 2.0F * kPi / k);
  p.sig.hue += rng.normal(0.0F, spread * 0.35F / k);
  p.brightness = 1.0F + rng.normal(0.0F, spec.brightness_jitter);
  p.disk_radius = 0.18F + rng.uniform(-0.04F, 0.04F);
  return p;
}

/// Simple HSV-ish hue to RGB weights (saturation/value fixed at 1).
void hue_to_rgb(float hue, float rgb[3]) {
  hue = hue - std::floor(hue);
  const float h = hue * 6.0F;
  const float x = 1.0F - std::fabs(std::fmod(h, 2.0F) - 1.0F);
  const int sector = static_cast<int>(h) % 6;
  const float table[6][3] = {{1, x, 0}, {x, 1, 0}, {0, 1, x},
                             {0, x, 1}, {x, 0, 1}, {1, 0, x}};
  for (int i = 0; i < 3; ++i) rgb[i] = table[sector][i];
}

/// Renders one instance into `pixels` (C*H*W floats), *adding* with weight
/// `blend` so a second object can be overlaid (Fig 3b analogue).
void render_instance(const InstanceParams& p, const SyntheticSpec& spec,
                     float blend, float* pixels) {
  const std::int64_t n = spec.size;
  const float cx = static_cast<float>(n - 1) / 2.0F;
  const float cos_a = std::cos(p.sig.stripe_angle);
  const float sin_a = std::sin(p.sig.stripe_angle);
  const float ring_r = 0.30F * static_cast<float>(n);
  const float disk_cx = cx + ring_r * std::cos(p.sig.disk_phase);
  const float disk_cy = cx + ring_r * std::sin(p.sig.disk_phase);
  const float disk_r = p.disk_radius * static_cast<float>(n);

  float rgb[3] = {1.0F, 1.0F, 1.0F};
  if (spec.channels == 3) hue_to_rgb(p.sig.hue, rgb);

  for (std::int64_t y = 0; y < n; ++y) {
    for (std::int64_t x = 0; x < n; ++x) {
      const float fx = static_cast<float>(x) - cx;
      const float fy = static_cast<float>(y) - cx;
      // Oriented sinusoidal stripe field.
      const float proj = fx * cos_a + fy * sin_a;
      float v = 0.5F + 0.35F * std::sin(2.0F * kPi * p.sig.stripe_freq * proj /
                                        static_cast<float>(n));
      // Disk signature: bright blob at the class's ring position.
      const float dx = static_cast<float>(x) - disk_cx;
      const float dy = static_cast<float>(y) - disk_cy;
      const float d2 = dx * dx + dy * dy;
      if (d2 < disk_r * disk_r) {
        v = 0.9F;
      } else if (d2 < 4.0F * disk_r * disk_r) {
        // Soft halo so the disk remains visible under noise.
        v += 0.25F * std::exp(-(d2 - disk_r * disk_r) / (disk_r * disk_r));
      }
      v *= p.brightness;
      for (std::int64_t c = 0; c < spec.channels; ++c) {
        const float channel_weight = spec.channels == 3 ? (0.35F + 0.65F * rgb[c]) : 1.0F;
        pixels[(c * n + y) * n + x] += blend * v * channel_weight;
      }
    }
  }
}

void apply_occlusion(const SyntheticSpec& spec, Rng& rng, float* pixels) {
  const std::int64_t n = spec.size;
  const auto patch =
      static_cast<std::int64_t>(spec.occlusion_size * static_cast<float>(n));
  if (patch <= 0) return;
  const std::int64_t oy = rng.randint(0, n - patch);
  const std::int64_t ox = rng.randint(0, n - patch);
  const float fill = rng.bernoulli(0.5) ? 0.05F : 0.85F;
  for (std::int64_t c = 0; c < spec.channels; ++c) {
    for (std::int64_t y = oy; y < oy + patch; ++y) {
      for (std::int64_t x = ox; x < ox + patch; ++x) {
        pixels[(c * n + y) * n + x] = fill;
      }
    }
  }
}

}  // namespace

Dataset generate_synthetic(const SyntheticSpec& spec) {
  return std::move(generate_synthetic_parts(spec, {spec.count})[0]);
}

std::vector<Dataset> generate_synthetic_parts(
    const SyntheticSpec& spec, const std::vector<std::int64_t>& sizes) {
  std::int64_t total = 0;
  bool negative = false;
  for (const std::int64_t n : sizes) {
    negative |= n < 0;
    total += n;
  }
  if (spec.count <= 0 || spec.num_classes <= 1 || spec.size < 8 ||
      (spec.channels != 1 && spec.channels != 3) || negative ||
      total > spec.count) {
    throw std::invalid_argument("generate_synthetic: invalid spec");
  }
  Rng rng(spec.seed);
  const std::int64_t per_sample = spec.channels * spec.size * spec.size;
  std::vector<std::int64_t> labels(static_cast<std::size_t>(spec.count));

  // Balanced labels in shuffled order so any prefix slice stays balanced.
  for (std::int64_t i = 0; i < spec.count; ++i) {
    labels[static_cast<std::size_t>(i)] = i % spec.num_classes;
  }
  rng.shuffle(labels);

  // Each part is rendered straight into its own buffer, so no full-corpus
  // copy is ever held next to the parts.
  std::vector<Dataset> parts;
  std::int64_t i = 0;
  for (const std::int64_t n : sizes) {
    std::vector<float> data(static_cast<std::size_t>(n * per_sample), 0.0F);
    for (std::int64_t at = 0; at < n; ++at, ++i) {
      float* pixels = data.data() + at * per_sample;
      const std::int64_t cls = labels[static_cast<std::size_t>(i)];
      const InstanceParams primary =
          perturb(signature_for(cls, spec.num_classes), spec, rng);

      const bool second = rng.bernoulli(spec.second_object_prob);
      if (second) {
        // Blend a distractor from a different class; the label remains the
        // primary object's class, as in the paper's seashore/mountain
        // example.
        std::int64_t other = rng.randint(0, spec.num_classes - 2);
        if (other >= cls) ++other;
        const InstanceParams distractor =
            perturb(signature_for(other, spec.num_classes), spec, rng);
        render_instance(primary, spec, 0.60F, pixels);
        render_instance(distractor, spec, 0.40F, pixels);
      } else {
        render_instance(primary, spec, 1.0F, pixels);
      }

      if (rng.bernoulli(spec.occlusion_prob)) {
        apply_occlusion(spec, rng, pixels);
      }

      for (std::int64_t j = 0; j < per_sample; ++j) {
        float v = pixels[j] + rng.normal(0.0F, spec.noise_std);
        pixels[j] = std::min(1.0F, std::max(0.0F, v));
      }
    }
    Dataset part;
    part.name = spec.name;
    part.num_classes = spec.num_classes;
    part.labels.assign(labels.begin() + (i - n), labels.begin() + i);
    part.images = Tensor(Shape{n, spec.channels, spec.size, spec.size},
                         std::move(data));
    parts.push_back(std::move(part));
  }
  return parts;
}

SyntheticSpec smnist_spec(std::int64_t count, std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "smnist";
  s.channels = 1;
  s.size = 16;
  s.num_classes = 10;
  s.count = count;
  s.seed = seed;
  s.jitter = 0.40F;
  s.noise_std = 0.05F;
  s.occlusion_prob = 0.04F;
  s.second_object_prob = 0.02F;
  s.class_similarity = 0.15F;
  return s;
}

SyntheticSpec scifar_spec(std::int64_t count, std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "scifar";
  s.channels = 3;
  s.size = 16;
  s.num_classes = 10;
  s.count = count;
  s.seed = seed;
  s.jitter = 0.70F;
  s.noise_std = 0.14F;
  s.brightness_jitter = 0.15F;
  s.occlusion_prob = 0.20F;
  s.occlusion_size = 0.30F;
  s.second_object_prob = 0.12F;
  s.class_similarity = 0.60F;
  return s;
}

SyntheticSpec simagenet_spec(std::int64_t count, std::uint64_t seed) {
  SyntheticSpec s;
  s.name = "simagenet";
  s.channels = 3;
  s.size = 24;
  s.num_classes = 20;
  s.count = count;
  s.seed = seed;
  s.jitter = 0.85F;
  s.noise_std = 0.18F;
  s.brightness_jitter = 0.20F;
  s.occlusion_prob = 0.30F;
  s.occlusion_size = 0.35F;
  s.second_object_prob = 0.25F;
  s.class_similarity = 1.00F;
  return s;
}

}  // namespace pgmr::data
