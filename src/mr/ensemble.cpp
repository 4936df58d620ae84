#include "mr/ensemble.h"

#include <cmath>
#include <stdexcept>

namespace pgmr::mr {

const char* to_string(MemberFault fault) {
  switch (fault) {
    case MemberFault::none: return "none";
    case MemberFault::skipped: return "skipped";
    case MemberFault::exception: return "exception";
    case MemberFault::non_finite: return "non_finite";
    case MemberFault::checksum: return "checksum";
  }
  return "unknown";
}

const char* to_string(Member::ReloadStatus status) {
  switch (status) {
    case Member::ReloadStatus::healed: return "healed";
    case Member::ReloadStatus::no_source: return "no_source";
    case Member::ReloadStatus::load_failed: return "load_failed";
    case Member::ReloadStatus::mismatch: return "mismatch";
  }
  return "unknown";
}

Member::Member(std::unique_ptr<prep::Preprocessor> preprocessor,
               nn::Network network, int bits)
    : prep_(std::move(preprocessor)),
      prep_name_(prep_->name()),
      net_(std::move(network), bits) {}

std::string Member::description() const {
  return prep_name_ + "/" + net_.name();
}

Tensor Member::probabilities(const Tensor& images) {
  return net_.probabilities(prep_->apply(images));
}

MemberOutcome Member::try_probabilities(const Tensor& images) {
  MemberOutcome out;
  quant::AbftCheck abft;
  try {
    out.probabilities = net_.probabilities(prep_->apply(images), &abft);
  } catch (const std::exception& e) {
    out.fault = MemberFault::exception;
    out.error = std::current_exception();
    out.message = e.what();
    return out;
  } catch (...) {
    out.fault = MemberFault::exception;
    out.error = std::current_exception();
    out.message = "non-standard exception";
    return out;
  }
  for (std::int64_t i = 0; i < out.probabilities.numel(); ++i) {
    if (!std::isfinite(out.probabilities[i])) {
      out.fault = MemberFault::non_finite;
      out.message = "non-finite softmax output";
      return out;
    }
  }
  if (abft.checked && !abft.ok) {
    out.fault = MemberFault::checksum;
    out.failed_layer = abft.failed_layer;
    out.message = "ABFT column-sum mismatch at layer " +
                  std::to_string(abft.failed_layer) +
                  (abft.failed_kind.empty() ? "" : " (" + abft.failed_kind + ")");
  }
  return out;
}

Member::ReloadStatus Member::reload_params() {
  if (archive_source_.empty()) return ReloadStatus::no_source;
  try {
    quant::QuantizedNetwork fresh(nn::Network::load(archive_source_),
                                  net_.bits(), net_.protection());
    // Construction is deterministic (load + truncate + bless), so a healthy
    // archive reproduces the exact chunk CRCs blessed at member
    // construction. A difference means the archive itself has rotted since.
    if (fresh.golden_chunk_crcs() != net_.golden_chunk_crcs()) {
      return ReloadStatus::mismatch;
    }
    net_ = std::move(fresh);
    return ReloadStatus::healed;
  } catch (const std::exception&) {
    return ReloadStatus::load_failed;
  }
}

perf::InferenceCost Member::cost(const Shape& in,
                                 const perf::CostModel& model) const {
  return model.network_cost(net_.network().cost(in), net_.bits(),
                            net_.protection());
}

void Ensemble::replace(std::size_t i, Member member) {
  if (i >= members_.size()) {
    throw std::invalid_argument("Ensemble::replace: slot out of range");
  }
  members_[i] = std::move(member);
}

std::vector<std::string> Ensemble::prep_names() const {
  std::vector<std::string> names;
  names.reserve(members_.size());
  for (const Member& m : members_) names.push_back(m.prep_name());
  return names;
}

std::vector<Tensor> Ensemble::member_probabilities(const Tensor& images,
                                                   const Executor& exec) {
  std::vector<Tensor> out(members_.size());
  exec(members_.size(),
       [&](std::size_t m) { out[m] = members_[m].probabilities(images); });
  return out;
}

std::vector<MemberOutcome> Ensemble::member_outcomes(
    const Tensor& images, const Executor& exec,
    const std::vector<bool>* active) {
  if (active != nullptr && active->size() != members_.size()) {
    throw std::invalid_argument("Ensemble::member_outcomes: mask size");
  }
  std::vector<MemberOutcome> out(members_.size());
  exec(members_.size(), [&](std::size_t m) {
    if (active != nullptr && !(*active)[m]) {
      out[m].fault = MemberFault::skipped;
      out[m].message = "inactive (quarantined or masked)";
      return;
    }
    out[m] = members_[m].try_probabilities(images);
  });
  return out;
}

MemberVotes Ensemble::member_votes(const Tensor& images, const Executor& exec) {
  return votes_from_members(member_probabilities(images, exec));
}

std::vector<perf::InferenceCost> Ensemble::member_costs(
    const Shape& in, const perf::CostModel& model) const {
  std::vector<perf::InferenceCost> out;
  out.reserve(members_.size());
  for (const Member& m : members_) out.push_back(m.cost(in, model));
  return out;
}

}  // namespace pgmr::mr
