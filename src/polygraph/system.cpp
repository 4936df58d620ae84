#include "polygraph/system.h"

#include <stdexcept>

namespace pgmr::polygraph {

PolygraphSystem::PolygraphSystem(mr::Ensemble ensemble)
    : ensemble_(std::move(ensemble)) {
  if (ensemble_.size() == 0) {
    throw std::invalid_argument("PolygraphSystem: empty ensemble");
  }
  thresholds_ = mr::Thresholds{0.0F, 1};
}

void PolygraphSystem::apply_protection(
    const std::vector<nn::Protection>& levels) {
  if (levels.size() != ensemble_.size()) {
    throw std::invalid_argument(
        "PolygraphSystem::apply_protection: plan size != ensemble size");
  }
  for (std::size_t m = 0; m < ensemble_.size(); ++m) {
    ensemble_.member(m).set_protection(levels[m]);
  }
}

mr::SweepPoint PolygraphSystem::profile(
    const Tensor& val_images, const std::vector<std::int64_t>& val_labels,
    double tp_floor) {
  const mr::MemberVotes votes = ensemble_.member_votes(val_images);
  const auto points =
      mr::sweep_thresholds(votes, val_labels, mr::default_conf_grid());
  const auto frontier = mr::pareto_frontier(points);
  const auto chosen = mr::select_by_tp_floor(frontier, tp_floor);
  if (!chosen) {
    throw std::runtime_error("PolygraphSystem::profile: empty frontier");
  }
  thresholds_ = chosen->thresholds;
  return *chosen;
}

void PolygraphSystem::enable_staged(
    const Tensor& val_images, const std::vector<std::int64_t>& val_labels) {
  const mr::MemberVotes votes = ensemble_.member_votes(val_images);
  priority_ = mr::contribution_priority(votes, val_labels);
}

const std::vector<std::size_t>& PolygraphSystem::priority() const {
  if (!priority_) {
    throw std::logic_error("PolygraphSystem: staged mode not enabled");
  }
  return *priority_;
}

Verdict PolygraphSystem::predict(const Tensor& image) {
  if (image.shape().rank() != 4 || image.shape()[0] != 1) {
    throw std::invalid_argument("PolygraphSystem::predict: expected [1,C,H,W]");
  }
  return predict_batch(image).front();
}

std::vector<Verdict> PolygraphSystem::predict_batch(const Tensor& images,
                                                    const mr::Executor& exec) {
  if (images.shape().rank() != 4 || images.shape()[0] < 1) {
    throw std::invalid_argument(
        "PolygraphSystem::predict_batch: expected non-empty [N,C,H,W]");
  }
  const mr::MemberVotes votes = ensemble_.member_votes(images, exec);
  const std::int64_t batch = images.shape()[0];
  std::vector<Verdict> out(static_cast<std::size_t>(batch));
  for (std::int64_t n = 0; n < batch; ++n) {
    out[static_cast<std::size_t>(n)] = full_quorum_verdict(votes, n);
  }
  return out;
}

Verdict PolygraphSystem::full_quorum_verdict(const mr::MemberVotes& votes,
                                             std::int64_t n) const {
  Verdict v;
  if (priority_) {
    // RADE: staged_decide only *charges* for the activated prefix; every
    // member's votes are available since the whole batch already ran.
    std::vector<mr::Vote> ordered;
    ordered.reserve(ensemble_.size());
    for (std::size_t m : *priority_) {
      ordered.push_back(votes[m][static_cast<std::size_t>(n)]);
    }
    const mr::StagedDecision sd = mr::staged_decide(ordered, thresholds_);
    v.label = sd.decision.label;
    v.reliable = sd.decision.reliable;
    v.votes = sd.decision.votes_for_label;
    v.activated = sd.activated;
  } else {
    const mr::Decision d = mr::decide(mr::sample_votes(votes, n), thresholds_);
    v.label = d.label;
    v.reliable = d.reliable;
    v.votes = d.votes_for_label;
    v.activated = static_cast<int>(ensemble_.size());
  }
  return v;
}

BatchReport PolygraphSystem::predict_batch_resilient(
    const Tensor& images, const std::vector<bool>& run_mask,
    const mr::Executor& exec) {
  if (images.shape().rank() != 4 || images.shape()[0] < 1) {
    throw std::invalid_argument(
        "PolygraphSystem::predict_batch_resilient: expected non-empty "
        "[N,C,H,W]");
  }
  const std::vector<bool>* mask = run_mask.empty() ? nullptr : &run_mask;
  std::vector<mr::MemberOutcome> outcomes =
      ensemble_.member_outcomes(images, exec, mask);

  BatchReport report;
  report.member_faults.reserve(outcomes.size());
  std::vector<std::size_t> usable;
  bool any_exception = false;
  for (std::size_t m = 0; m < outcomes.size(); ++m) {
    report.member_faults.push_back(outcomes[m].fault);
    if (outcomes[m].ok()) usable.push_back(m);
    any_exception |= outcomes[m].fault == mr::MemberFault::exception;
  }
  report.active = static_cast<int>(usable.size());
  const int total = static_cast<int>(ensemble_.size());
  report.degraded = report.active < total;

  const std::int64_t batch = images.shape()[0];
  report.verdicts.resize(static_cast<std::size_t>(batch));

  if (usable.empty()) {
    if (any_exception) {
      // Whole-ensemble failure: indistinguishable from a poison input, so
      // propagate instead of answering (and instead of quarantining every
      // member over one request).
      for (const mr::MemberOutcome& o : outcomes) {
        if (o.error) std::rethrow_exception(o.error);
      }
    }
    // All outputs were non-finite/corrupt: serve honest "don't know"s.
    for (Verdict& v : report.verdicts) {
      v.degraded = true;
    }
    return report;
  }

  if (report.active == total) {
    // Zero faults, full mask: exactly the predict_batch decision path.
    std::vector<Tensor> probs;
    probs.reserve(outcomes.size());
    for (mr::MemberOutcome& o : outcomes) {
      probs.push_back(std::move(o.probabilities));
    }
    const mr::MemberVotes votes = mr::votes_from_members(probs);
    for (std::int64_t n = 0; n < batch; ++n) {
      report.verdicts[static_cast<std::size_t>(n)] =
          full_quorum_verdict(votes, n);
    }
    return report;
  }

  // Degraded quorum: decide over the survivors only, with Thr_Freq
  // re-normalized against the active member count. RADE staging is
  // suspended while degraded — its priority order is meaningless with
  // holes in the ensemble, and every survivor already ran anyway.
  std::vector<Tensor> probs;
  probs.reserve(usable.size());
  for (std::size_t m : usable) {
    probs.push_back(std::move(outcomes[m].probabilities));
  }
  const mr::MemberVotes votes = mr::votes_from_members(probs);
  for (std::int64_t n = 0; n < batch; ++n) {
    const mr::Decision d =
        mr::decide(mr::sample_votes(votes, n), thresholds_, report.active,
                   total);
    Verdict& v = report.verdicts[static_cast<std::size_t>(n)];
    v.label = d.label;
    v.reliable = d.reliable;
    v.votes = d.votes_for_label;
    v.activated = report.active;
    v.degraded = true;
  }
  return report;
}

mr::Outcome PolygraphSystem::evaluate(const Tensor& images,
                                      const std::vector<std::int64_t>& labels,
                                      const mr::Executor& exec) {
  const mr::MemberVotes votes = ensemble_.member_votes(images, exec);
  return mr::evaluate(votes, labels, thresholds_);
}

mr::StagedOutcome PolygraphSystem::evaluate_staged(
    const Tensor& images, const std::vector<std::int64_t>& labels,
    const mr::Executor& exec) {
  if (!priority_) {
    throw std::logic_error(
        "PolygraphSystem::evaluate_staged: call enable_staged first");
  }
  const mr::MemberVotes votes = ensemble_.member_votes(images, exec);
  return mr::evaluate_staged(votes, labels, *priority_, thresholds_);
}

}  // namespace pgmr::polygraph
