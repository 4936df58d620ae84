// QuantizedNetwork: a Network executed at reduced unified precision.
//
// Weights are truncated once at construction; activations are truncated
// after every layer, simulating the paper's truncating load/store path.
//
// The wrapper also carries ABFT (Huang–Abraham) column-sum checksums over
// the network's GEMM layers, captured while the weights are known good.
// Three protection levels (nn::Protection):
//   off       — no checksums, bit-identical fast path;
//   final_fc  — the final Dense layer only (FT-CNN style, the historical
//               default): sum_o y[n,o] must equal dot(x[n,:], colsum) + sum(b);
//   full      — every Conv2D and Dense layer, including those nested in
//               Sequential/ResidualBlock/DenseBlock composites.
// A stored-weight corruption (e.g. a high-exponent bit flip from the fault
// injector) breaks the checked identity by orders of magnitude and is
// reported through AbftCheck with the first failing layer — without any
// second GEMM.
//
// Independently of ABFT, the wrapper snapshots CRC32s of every parameter
// tensor, one per 64 KiB chunk, at blessing time; the runtime's weight
// scrubber re-computes these off the hot path to catch corruptions ABFT's
// tolerance hides (e.g. mantissa-LSB flips) and to decide when a member
// needs reloading.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/abft.h"
#include "nn/network.h"
#include "quant/precision.h"

namespace pgmr::quant {

/// Result of the ABFT checksum verification for one forward pass.
struct AbftCheck {
  bool checked = false;  ///< at least one layer verification ran
  bool ok = true;        ///< false on checksum mismatch (or non-finite sums)
  float max_rel_error = 0.0F;  ///< worst |actual-expected|/(1+|expected|)
  int layers_checked = 0;      ///< top-level layers that ran a verification
  int failed_layer = -1;       ///< first failing top-level layer index
  std::string failed_kind;     ///< kind() of the first failing layer
};

/// Relative tolerance for the checksum comparisons (see nn/abft.h).
inline constexpr float kAbftTolerance = nn::kAbftTolerance;

/// Owns an independent copy of a network and runs it at `bits` precision.
/// Obtain the copy by re-loading the cached model from disk (Network is
/// move-only by design).
class QuantizedNetwork {
 public:
  /// Takes ownership of `network`, truncates all its parameters and blesses
  /// the result: captures the golden ABFT checksums for `protection` and
  /// the golden parameter CRCs.
  QuantizedNetwork(nn::Network network, int bits,
                   nn::Protection protection = nn::Protection::final_fc);

  const std::string& name() const { return network_.name(); }
  int bits() const { return bits_; }

  nn::Protection protection() const { return protection_; }

  /// Switches the protection level and re-blesses the *current* weights
  /// (recaptures checksums and CRCs) — call only while they are known good.
  void set_protection(nn::Protection protection);

  /// Forward pass with per-layer activation truncation; returns logits.
  /// When `abft` is non-null the protected layers are verified into it.
  Tensor forward(const Tensor& input, AbftCheck* abft = nullptr);

  /// Observation/corruption hook on the in-flight activation tensor, called
  /// after each top-level layer's truncation with that layer's index. This
  /// is the seam activation-resolution fault injection uses (see
  /// fault/chaos.h): a corruption written here happens *between* layers, so
  /// ABFT — which verifies each GEMM against its actual input — cannot see
  /// it; only the MR vote (and the non-finite output check) stands between
  /// it and the verdict. For a folded conv→BN pair the tap fires once, on
  /// the BatchNorm output, with the pair's first (conv) layer index. An
  /// empty function clears the tap. Not thread-safe against a concurrent
  /// forward(); install before serving or under the runtime's swap lock.
  using ForwardTap = std::function<void(Tensor& activation, int layer)>;
  void set_forward_tap(ForwardTap tap) { tap_ = std::move(tap); }

  /// forward() followed by softmax — the layer-2 output PolygraphMR uses.
  Tensor probabilities(const Tensor& input, AbftCheck* abft = nullptr);

  /// Cost of one forward pass at the wrapped precision is derived by the
  /// perf module from this plus bits(); expose the underlying network.
  const nn::Network& network() const { return network_; }

  /// Mutable access for fault injection (chaos/injector campaigns). Note
  /// that deliberate weight edits are exactly what the ABFT checksum and
  /// parameter CRCs detect; call refresh_checksum() after a *legitimate*
  /// weight change.
  nn::Network& mutable_network() { return network_; }

  /// Re-blesses the current weights: recaptures the golden ABFT checksums
  /// at the active protection level and re-snapshots the parameter CRCs.
  void refresh_checksum();

  /// Chunk granularity of the parameter CRC snapshot: each parameter
  /// tensor is blessed as independent CRC32s over kCrcChunkElems-float
  /// windows, so a corruption is localized to its chunk and the scrubber
  /// verifies one chunk per swap-mutex acquisition. 16384 floats = 64 KiB.
  static constexpr std::int64_t kCrcChunkElems = 16384;

  /// Golden chunk CRC32s per parameter tensor, in params() order, taken at
  /// the last blessing (construction / refresh_checksum / set_protection).
  const std::vector<std::vector<std::uint32_t>>& golden_chunk_crcs() const {
    return golden_chunk_crcs_;
  }

  /// True when every current parameter chunk matches its golden CRC.
  bool params_intact();

  /// Index (params() order) of the first corrupted parameter, -1 if intact.
  int first_corrupt_param();

  /// Number of blessed parameter tensors.
  std::size_t param_count() const { return golden_chunk_crcs_.size(); }

  /// Chunks in parameter tensor `i` (ceil(numel / kCrcChunkElems), at
  /// least 1 for an in-range tensor); 0 for an out-of-range index.
  std::size_t param_chunk_count(std::size_t i) const;

  /// CRC check of one chunk of parameter tensor `i`; false out of range or
  /// on live/golden size drift — a drift is a corruption signal.
  bool param_chunk_intact(std::size_t i, std::size_t chunk);

 private:
  /// True when layers [l, l+1] are a conv→BN pair the checksum can fold.
  bool foldable_at(std::size_t l) const;

  nn::Network network_;
  int bits_;
  nn::Protection protection_;
  /// Golden checksum per top-level layer; empty entries are unprotected.
  std::vector<nn::AbftChecksum> layer_golden_;
  /// Per-tensor chunked CRC snapshot (kCrcChunkElems floats per chunk).
  std::vector<std::vector<std::uint32_t>> golden_chunk_crcs_;
  ForwardTap tap_;
};

}  // namespace pgmr::quant
