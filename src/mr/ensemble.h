// Ensemble: Layers 1+2 bound together — each member pairs a preprocessor
// with a (possibly precision-reduced) CNN.
//
// Each member is also a *fault domain*: try_probabilities /
// member_outcomes capture per-member failures (thrown exceptions,
// non-finite softmax outputs, ABFT checksum mismatches on the final FC)
// as MemberOutcome values instead of letting one bad member take down the
// whole inference — the seam the serving runtime's quarantine and
// degraded-quorum machinery is built on.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "mr/evaluate.h"
#include "mr/executor.h"
#include "nn/network.h"
#include "perf/cost_model.h"
#include "prep/preprocessor.h"
#include "quant/quantized_network.h"

namespace pgmr::mr {

/// Why a member failed to contribute a usable softmax output.
enum class MemberFault {
  none,        ///< healthy output
  skipped,     ///< not run (inactive in the caller's run mask)
  exception,   ///< preprocessor or network threw
  non_finite,  ///< softmax contained NaN/Inf
  checksum,    ///< ABFT column-sum mismatch on the final FC GEMM
};

const char* to_string(MemberFault fault);

/// One member's isolated inference result.
struct MemberOutcome {
  /// [N, C] softmax. Valid for fault == none; still populated (but suspect)
  /// for non_finite/checksum faults; empty for skipped/exception.
  Tensor probabilities;
  MemberFault fault = MemberFault::none;
  std::exception_ptr error;  ///< set for exception faults
  std::string message;       ///< human-readable fault description
  /// For checksum faults: first failing top-level layer index, -1 otherwise.
  int failed_layer = -1;

  bool ok() const { return fault == MemberFault::none; }
};

/// One preprocessor + network pair. bits == 32 runs at full precision.
class Member {
 public:
  Member(std::unique_ptr<prep::Preprocessor> preprocessor, nn::Network network,
         int bits = quant::kFullBits);

  /// "<prep>/<network>" — e.g. "FlipX/convnet".
  std::string description() const;
  const std::string& prep_name() const { return prep_name_; }
  int bits() const { return net_.bits(); }

  /// ABFT protection level of the wrapped network (see nn/abft.h). Changing
  /// it re-blesses the current weights; do so only while they are good.
  nn::Protection protection() const { return net_.protection(); }
  void set_protection(nn::Protection p) { net_.set_protection(p); }

  /// Zoo archive this member's weights were loaded from — the scrubber's
  /// reload source. Empty when the member was built from an in-memory net.
  const std::string& archive_source() const { return archive_source_; }
  void set_archive_source(std::string path) {
    archive_source_ = std::move(path);
  }

  /// Outcome of a reload_params() self-heal attempt.
  enum class ReloadStatus {
    healed,       ///< weights replaced from the archive, CRCs match again
    no_source,    ///< no archive_source recorded
    load_failed,  ///< archive unreadable (bad CRC / truncated / missing)
    mismatch,     ///< archive loads but its CRCs differ from the blessed set
  };

  /// Rebuilds this member's network from archive_source(). The fresh copy
  /// must reproduce the originally blessed parameter chunk CRCs
  /// (construction is deterministic: load + truncate), otherwise the
  /// archive itself is suspect and the member is left untouched.
  ReloadStatus reload_params();

  /// Applies the preprocessor then the network; returns [N, C] softmax.
  /// Exceptions propagate — this is the strict path.
  Tensor probabilities(const Tensor& images);

  /// Fault-isolated inference: exceptions, non-finite outputs and ABFT
  /// checksum failures are reported in the outcome, never thrown.
  MemberOutcome try_probabilities(const Tensor& images);

  /// The wrapped network: fault-injection campaigns edit it, the scrubber
  /// verifies its parameter CRC chunks.
  quant::QuantizedNetwork& net() { return net_; }

  /// Static cost of one inference on inputs of shape `in` at this member's
  /// precision.
  perf::InferenceCost cost(const Shape& in, const perf::CostModel& model) const;

 private:
  std::unique_ptr<prep::Preprocessor> prep_;
  std::string prep_name_;
  quant::QuantizedNetwork net_;
  std::string archive_source_;
};

const char* to_string(Member::ReloadStatus status);

/// The heterogeneous modular-redundant group (paper Layer 2).
class Ensemble {
 public:
  Ensemble() = default;

  void add(Member member) { members_.push_back(std::move(member)); }
  std::size_t size() const { return members_.size(); }
  const Member& member(std::size_t i) const { return members_[i]; }
  Member& member(std::size_t i) { return members_[i]; }

  /// Replaces the member in slot `i` — the self-healing runtime's hot-swap
  /// seam. The slot keeps its position (decision order, health index,
  /// metrics index); only the preprocessor/network pair changes. Callers
  /// must serialize against in-flight inference (the runtime holds its
  /// swap mutex across the call). Once the slot is back in the run mask
  /// the quorum is full again, so the degraded Thr_Freq re-normalization
  /// naturally falls away — decisions recompute it per batch from the
  /// surviving member count.
  void replace(std::size_t i, Member member);

  /// Preprocessor name of every member, in slot order — the composition
  /// fingerprint replacement planning diversifies against.
  std::vector<std::string> prep_names() const;

  /// Runs every member on `images`; result[m] is member m's [N, C] softmax.
  /// Members are dispatched through `exec`, so the same implementation
  /// serves the serial path and the runtime's per-member parallelism; the
  /// result is identical either way (each member writes its own slot).
  std::vector<Tensor> member_probabilities(
      const Tensor& images, const Executor& exec = serial_executor());

  /// Fault-isolated variant: every member runs inside its own fault domain
  /// (see MemberOutcome). `active` (when non-null, sized like the ensemble)
  /// marks members to skip — the runtime passes its quarantine mask.
  std::vector<MemberOutcome> member_outcomes(
      const Tensor& images, const Executor& exec = serial_executor(),
      const std::vector<bool>* active = nullptr);

  /// member_probabilities + vote extraction in one call.
  MemberVotes member_votes(const Tensor& images,
                           const Executor& exec = serial_executor());

  /// Per-member inference cost on inputs of shape `in`.
  std::vector<perf::InferenceCost> member_costs(
      const Shape& in, const perf::CostModel& model) const;

 private:
  std::vector<Member> members_;
};

}  // namespace pgmr::mr
