// PolygraphSystem: the paper's complete three-layer design behind one API.
//
//   Layer 1  preprocessors   (prep::Preprocessor, one per member)
//   Layer 2  heterogeneous MR (mr::Ensemble of trained CNNs, optionally
//                              precision-reduced — RAMR)
//   Layer 3  decision engine  (mr::decide with Thr_Conf / Thr_Freq,
//                              optionally staged — RADE)
//
// Typical use: build (or load) an ensemble, call profile() on the
// validation split to pick thresholds from the Pareto frontier, optionally
// enable_staged() for RADE, then predict()/evaluate() on live inputs.
#pragma once

#include <optional>

#include "mr/ensemble.h"
#include "mr/pareto.h"
#include "mr/rade.h"

namespace pgmr::polygraph {

/// A reliability-annotated prediction for one input.
struct Verdict {
  std::int64_t label = -1;
  bool reliable = false;
  int votes = 0;      ///< acceptable votes behind `label`
  int activated = 0;  ///< members actually run (== size unless staged)
  /// True when the verdict was reached without full quorum — some members
  /// were quarantined or faulted, and Thr_Freq was re-normalized against
  /// the survivors. A degraded TP is honest but weaker than a full-quorum
  /// TP; callers who need the distinction read this flag.
  bool degraded = false;
};

/// Result of one fault-isolated batch: verdicts plus per-member fault
/// classes, so the serving runtime can feed its health tracker.
struct BatchReport {
  std::vector<Verdict> verdicts;
  std::vector<mr::MemberFault> member_faults;  ///< one entry per member
  int active = 0;  ///< members that contributed usable probabilities
  bool degraded = false;  ///< active < ensemble size
};

/// The assembled PolygraphMR system.
class PolygraphSystem {
 public:
  /// Takes ownership of a configured ensemble. Thresholds default to the
  /// most permissive setting until profile()/set_thresholds is called.
  explicit PolygraphSystem(mr::Ensemble ensemble);

  mr::Ensemble& ensemble() { return ensemble_; }
  const mr::Thresholds& thresholds() const { return thresholds_; }
  void set_thresholds(const mr::Thresholds& t) { thresholds_ = t; }
  bool staged() const { return priority_.has_value(); }

  /// Applies a per-member ABFT protection plan (slot order — typically the
  /// output of mr::select_protection). set_protection re-blesses each
  /// member's checksums, so call only while the weights are good and no
  /// inference is in flight. Throws std::invalid_argument on size mismatch.
  void apply_protection(const std::vector<nn::Protection>& levels);

  /// Offline profiling stage (Section III-E): sweeps (Thr_Conf, Thr_Freq)
  /// on the validation set, installs the Pareto point with minimum FP
  /// subject to tp_rate >= tp_floor, and returns it.
  mr::SweepPoint profile(const Tensor& val_images,
                         const std::vector<std::int64_t>& val_labels,
                         double tp_floor);

  /// Enables RADE staged activation, deriving the member priority order
  /// from per-member correctness on the validation set (Section III-F).
  void enable_staged(const Tensor& val_images,
                     const std::vector<std::int64_t>& val_labels);

  /// Disables staged activation (every member runs for every input).
  void disable_staged() { priority_.reset(); }

  /// Member priority order (only meaningful after enable_staged).
  const std::vector<std::size_t>& priority() const;

  /// Classifies one [1, C, H, W] input.
  Verdict predict(const Tensor& image);

  /// Classifies a whole [N, C, H, W] batch, returning one Verdict per
  /// sample. Ensemble members are dispatched through `exec` (the serving
  /// runtime passes its thread pool; the default runs them inline), and the
  /// verdicts are identical regardless of executor. Honours staged (RADE)
  /// mode: every member's probabilities are computed for the batch, but
  /// each verdict only charges for (and reports) the activated prefix.
  std::vector<Verdict> predict_batch(
      const Tensor& images, const mr::Executor& exec = mr::serial_executor());

  /// Fault-isolated predict_batch: every member runs in its own fault
  /// domain (exceptions, non-finite softmax and ABFT checksum failures are
  /// captured per member, cf. mr::MemberOutcome), `run_mask` (empty = all)
  /// skips quarantined members, and verdicts fall back to a degraded
  /// quorum — Thr_Freq re-normalized against the surviving member count —
  /// whenever any member is down. With a full mask and zero faults the
  /// verdicts are bit-identical to predict_batch (RADE staging included).
  /// When *no* member produces output and at least one threw, the first
  /// exception is rethrown: a whole-ensemble failure is indistinguishable
  /// from a poison input, and quarantining everyone on it would be wrong.
  BatchReport predict_batch_resilient(
      const Tensor& images, const std::vector<bool>& run_mask = {},
      const mr::Executor& exec = mr::serial_executor());

  /// Full-activation evaluation over a labeled set.
  mr::Outcome evaluate(const Tensor& images,
                       const std::vector<std::int64_t>& labels,
                       const mr::Executor& exec = mr::serial_executor());

  /// Staged (RADE) evaluation; also reports the activation histogram.
  /// Requires enable_staged() to have been called.
  mr::StagedOutcome evaluate_staged(
      const Tensor& images, const std::vector<std::int64_t>& labels,
      const mr::Executor& exec = mr::serial_executor());

 private:
  /// The full-quorum per-sample decision (staged or flat), shared by
  /// predict_batch and the zero-fault path of predict_batch_resilient so
  /// the two are bit-identical by construction.
  Verdict full_quorum_verdict(const mr::MemberVotes& votes,
                              std::int64_t n) const;

  mr::Ensemble ensemble_;
  mr::Thresholds thresholds_;
  std::optional<std::vector<std::size_t>> priority_;
};

}  // namespace pgmr::polygraph
