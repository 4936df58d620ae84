#include "runtime/serving_runtime.h"

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pgmr::runtime {

namespace {

std::size_t clamped(std::size_t v) { return v == 0 ? 1 : v; }

/// Zero-valued sizing knobs mean "minimum", not "nothing": clamp them
/// before any pipeline component is built from them.
RuntimeOptions normalized(RuntimeOptions o) {
  o.threads = clamped(o.threads);
  o.max_batch = clamped(o.max_batch);
  o.queue_capacity = clamped(o.queue_capacity);
  return o;
}

}  // namespace

ServingRuntime::ServingRuntime(polygraph::PolygraphSystem system,
                               RuntimeOptions options)
    : system_(std::move(system)),
      options_(normalized(std::move(options))),
      metrics_(system_.ensemble().size()),
      health_(system_.ensemble().size(),
              MemberHealth::Options{options_.quarantine_after,
                                    options_.quarantine_cooldown,
                                    options_.fence_after_quarantines}),
      queue_(options_.queue_capacity),
      pool_(options_.threads),
      batcher_([this] { batcher_loop(); }) {
  if (!options_.protection_per_member.empty() &&
      options_.protection_per_member.size() != system_.ensemble().size()) {
    throw std::invalid_argument(
        "ServingRuntime: protection_per_member size != ensemble size");
  }
  // Apply the configured ABFT protection before any request can arrive;
  // the weights are fresh from the zoo here, so re-blessing is safe. A
  // per-member plan (from the cost-driven planner) overrides the uniform
  // level; replacements inherit their slot's level via the replacer.
  std::vector<nn::Protection> levels(
      system_.ensemble().size(), options_.protection);
  if (!options_.protection_per_member.empty()) {
    levels = options_.protection_per_member;
  }
  for (std::size_t m = 0; m < system_.ensemble().size(); ++m) {
    system_.ensemble().member(m).set_protection(levels[m]);
  }
  scrubber_ = std::make_unique<WeightScrubber>(
      system_.ensemble(), health_, metrics_, swap_mutex_,
      WeightScrubber::Options{options_.scrub_interval});
  replacer_ = std::make_unique<MemberReplacer>(
      system_.ensemble(), health_, metrics_, swap_mutex_,
      std::move(levels), options_.replacement);
  scrubber_->set_on_fence([this] { on_member_fenced(); });
  if (options_.scrub_interval.count() > 0) scrubber_->start();
  if (options_.replacement.enabled) replacer_->start();
}

ServingRuntime::~ServingRuntime() { shutdown(); }

ServingRuntime::Request ServingRuntime::make_request(
    Tensor image,
    std::optional<std::chrono::steady_clock::time_point> deadline) const {
  if (image.shape().rank() != 4 || image.shape()[0] != 1) {
    throw std::invalid_argument("ServingRuntime: expected a [1,C,H,W] image");
  }
  Request r;
  r.image = std::move(image);
  r.enqueued = std::chrono::steady_clock::now();
  r.deadline = deadline;
  return r;
}

std::future<polygraph::Verdict> ServingRuntime::submit(
    Tensor image,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (stopped_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ServingRuntime::submit after shutdown");
  }
  Request r = make_request(std::move(image), deadline);
  std::future<polygraph::Verdict> future = r.promise.get_future();
  if (!queue_.push(std::move(r))) {  // lost the race with shutdown()
    metrics_.on_rejected();
    throw std::runtime_error("ServingRuntime::submit after shutdown");
  }
  metrics_.on_submitted();
  return future;
}

std::optional<std::future<polygraph::Verdict>> ServingRuntime::try_submit(
    Tensor image,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (stopped_.load(std::memory_order_acquire)) {
    metrics_.on_rejected();
    return std::nullopt;
  }
  Request r = make_request(std::move(image), deadline);
  std::future<polygraph::Verdict> future = r.promise.get_future();
  if (!queue_.try_push(std::move(r))) {
    metrics_.on_rejected();
    return std::nullopt;
  }
  metrics_.on_submitted();
  return future;
}

void ServingRuntime::shutdown() {
  stopped_.store(true, std::memory_order_release);
  queue_.close();
  if (batcher_.joinable()) batcher_.join();
  if (scrubber_) scrubber_->stop();
  // Last: an in-flight replacement training run is cancelled through its
  // stop_token and never published (see zoo::TrainConfig::cancelled).
  if (replacer_) replacer_->stop();
}

void ServingRuntime::on_member_fenced() {
  metrics_.set_quorum_size(health_.in_service_count());
  if (replacer_) replacer_->notify();
}

void ServingRuntime::batcher_loop() {
  // Work-conserving: a batch is the head request plus whatever is already
  // queued. Only when the previous batch was full (demand exceeds one
  // batch) does the batcher linger for more, and then at most max_delay.
  bool last_full = false;
  while (std::optional<Request> first = queue_.pop()) {
    std::vector<Request> batch;
    batch.reserve(options_.max_batch);
    batch.push_back(std::move(*first));
    const auto close_at =
        std::chrono::steady_clock::now() +
        (last_full ? options_.max_delay : std::chrono::microseconds{0});
    while (batch.size() < options_.max_batch) {
      std::optional<Request> next = queue_.pop_until(close_at);
      if (!next) break;  // queue empty at close_at, or closed and drained
      batch.push_back(std::move(*next));
    }
    last_full = batch.size() == options_.max_batch;
    run_batch(batch);
  }
}

void ServingRuntime::run_batch(std::vector<Request>& batch) {
  // Load shedding: requests whose deadline already passed get a distinct
  // error without spending any inference on them. Then requests whose
  // geometry disagrees with the (surviving) batch head fail alone instead
  // of poisoning the whole batch.
  const auto entered = std::chrono::steady_clock::now();
  std::vector<Request*> live;
  live.reserve(batch.size());
  const Shape* head = nullptr;
  for (Request& r : batch) {
    if (r.deadline && *r.deadline < entered) {
      metrics_.on_shed();
      r.promise.set_exception(std::make_exception_ptr(DeadlineExceeded()));
      continue;
    }
    if (head == nullptr) head = &r.image.shape();
    if (r.image.shape() == *head) {
      live.push_back(&r);
    } else {
      r.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
          "ServingRuntime: request shape differs from batch head")));
    }
  }
  if (live.empty()) return;  // everything shed or rejected

  const std::int64_t n = static_cast<std::int64_t>(live.size());
  Tensor images(Shape{n, (*head)[1], (*head)[2], (*head)[3]});
  const std::int64_t stride = head->numel();  // [1,C,H,W] elements per image
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(images.data() + i * stride,
                live[static_cast<std::size_t>(i)]->image.data(),
                static_cast<std::size_t>(stride) * sizeof(float));
  }

  // Member fault domains + circuit breaker: quarantined members are
  // skipped via the mask; per-member faults are isolated inside
  // predict_batch_resilient. Only a whole-ensemble failure (every active
  // member threw — indistinguishable from a poison input) escapes as an
  // exception, and deliberately does not count against member health.
  // The swap mutex keeps the scrubber from reloading (or fencing) a member
  // mid-batch: weights are immutable for the duration of the inference and
  // the health updates that follow it.
  std::unique_lock swap_guard(swap_mutex_);
  const std::vector<bool> mask = health_.run_mask(entered);
  polygraph::BatchReport report;
  try {
    report = system_.predict_batch_resilient(images, mask, pool_.executor());
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (Request* r : live) r->promise.set_exception(error);
    return;
  }

  const auto now = std::chrono::steady_clock::now();
  bool fenced_this_batch = false;
  for (std::size_t m = 0; m < report.member_faults.size(); ++m) {
    const mr::MemberFault fault = report.member_faults[m];
    if (fault == mr::MemberFault::skipped) continue;
    const bool ok = fault == mr::MemberFault::none;
    if (!ok) metrics_.on_member_fault(m);
    if (health_.on_result(m, ok, now)) metrics_.on_quarantine(m);
    // Breaker escalation (fence_after_quarantines) happens inside
    // on_result; a member that ran this batch but is fenced now was
    // fenced by it — already-fenced members never appear in the mask.
    if (!ok && health_.state(m) == MemberState::fenced) {
      fenced_this_batch = true;
    }
  }
  swap_guard.unlock();
  if (fenced_this_batch) on_member_fenced();

  metrics_.on_batch(static_cast<std::uint64_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Request& r = *live[static_cast<std::size_t>(i)];
    const polygraph::Verdict& v =
        report.verdicts[static_cast<std::size_t>(i)];
    record_verdict(v, report);
    metrics_.on_latency_us(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - r.enqueued)
            .count()));
    r.promise.set_value(v);
  }
}

void ServingRuntime::record_verdict(const polygraph::Verdict& verdict,
                                    const polygraph::BatchReport& report) {
  metrics_.on_verdict(verdict.reliable);
  if (verdict.degraded) {
    metrics_.on_degraded_verdict();
    // Charge exactly the members that contributed under degraded quorum
    // (RADE staging is suspended while degraded).
    for (std::size_t m = 0; m < report.member_faults.size(); ++m) {
      if (report.member_faults[m] == mr::MemberFault::none) {
        metrics_.on_member_activated(m);
      }
    }
  } else if (system_.staged()) {
    // Only the activated prefix of the priority order did chargeable work.
    const std::vector<std::size_t>& priority = system_.priority();
    for (int k = 0; k < verdict.activated; ++k) {
      metrics_.on_member_activated(priority[static_cast<std::size_t>(k)]);
    }
  } else {
    for (std::size_t m = 0; m < metrics_.members(); ++m) {
      metrics_.on_member_activated(m);
    }
  }
}

}  // namespace pgmr::runtime
