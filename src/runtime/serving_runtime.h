// ServingRuntime: the request->batch->verdict serving layer over a
// PolygraphSystem.
//
// Pipeline (one dedicated batcher thread + a worker pool):
//
//   submit(image) --> bounded MPMC queue --> dynamic batcher --> [N,C,H,W]
//       batch --> ensemble members fanned across the ThreadPool -->
//       decision engine --> promise fulfilled with the Verdict
//
// The batcher is work-conserving: it dispatches the head request plus
// whatever is already queued, up to max_batch, without waiting. Only after a
// full batch (demand exceeds one batch) does it linger for more requests,
// and then for at most max_delay, a cap rather than a wait. Inside a batch,
// parallelism is per member (the paper's Layer-2 networks are independent),
// so verdicts are bit-identical to the serial path regardless of thread
// count. One batch is in flight at a time, which also keeps member networks
// single-threaded internally.
//
// Backpressure: the queue is bounded; submit() blocks when full,
// try_submit() refuses. Shutdown drains the queue — every accepted request
// gets its verdict — then rejects new submissions.
//
// Resilience (see DESIGN.md "Resilience & chaos testing"):
//  * Every member runs in its own fault domain
//    (PolygraphSystem::predict_batch_resilient): a member that throws,
//    emits NaN softmax or fails the final-FC ABFT checksum loses its vote
//    for that batch instead of failing the batch.
//  * A MemberHealth circuit breaker quarantines a member after
//    quarantine_after consecutive faults and probes it half-open after
//    quarantine_cooldown; quarantined members are skipped entirely.
//  * Verdicts decided without full quorum carry Verdict::degraded, with
//    Thr_Freq re-normalized against the surviving member count.
//  * submit() takes an optional absolute deadline; the batcher sheds
//    expired requests with a DeadlineExceeded error instead of spending
//    inference on them.
//  * Members run at a configurable ABFT protection level (off / final-FC /
//    full per-layer), and an optional background WeightScrubber re-verifies
//    parameter CRCs between batches, reloading corrupted members from their
//    zoo archives (fencing them out permanently when the archive is bad).
//  * With a ReplacementPolicy, a background MemberReplacer closes the
//    loop: fenced slots are rebuilt off the serving threads and hot-swapped
//    back in, returning the quorum to full strength (see replacer.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "polygraph/system.h"
#include "runtime/health.h"
#include "runtime/metrics.h"
#include "runtime/mpmc_queue.h"
#include "runtime/replacer.h"
#include "runtime/scrubber.h"
#include "runtime/thread_pool.h"

namespace pgmr::runtime {

/// The error a request's future carries when its deadline passed before
/// the batcher could serve it (load shedding).
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("request deadline exceeded") {}
};

/// Serving knobs. Defaults favour latency (tiny batches, short delay);
/// benches crank max_batch/max_delay up to show coalescing.
struct RuntimeOptions {
  std::size_t threads = 1;              ///< worker pool size
  std::size_t max_batch = 8;            ///< batch size cap (clamped >= 1)
  /// Linger cap: after a full batch, wait at most this long for the next
  /// batch to fill. A batch after a partial one goes out without waiting.
  std::chrono::microseconds max_delay{1000};
  std::size_t queue_capacity = 256;     ///< bounded request queue
  int quarantine_after = 3;             ///< consecutive faults to quarantine
  std::chrono::milliseconds quarantine_cooldown{250};  ///< half-open delay
  /// ABFT protection applied to every member at construction.
  nn::Protection protection = nn::Protection::final_fc;
  /// Per-member protection override (the cost-driven planner's output,
  /// see mr/protection.h). When non-empty it must match the ensemble size
  /// and takes precedence over `protection`; replacements for slot m are
  /// re-blessed at protection_per_member[m].
  std::vector<nn::Protection> protection_per_member;
  /// Background weight-scrub sweep period; <= 0 disables the scrubber
  /// (scrub_now() still verifies on demand). Every sweep is a full pass
  /// that holds the swap mutex for one CRC chunk at a time.
  std::chrono::milliseconds scrub_interval{0};
  /// Breaker escalation: fence a member after this many cumulative
  /// quarantine trips (it keeps failing its probes). 0 disables.
  int fence_after_quarantines = 0;
  /// Self-healing: background replacement of fenced members (see
  /// MemberReplacer). Disabled by default; enabling requires a factory.
  ReplacementPolicy replacement;
};

class ServingRuntime {
 public:
  /// Takes ownership of the (already profiled/configured) system.
  ServingRuntime(polygraph::PolygraphSystem system, RuntimeOptions options);

  /// shutdown(): drains pending requests, then stops the pipeline.
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Enqueues one [1, C, H, W] request; blocks while the queue is full.
  /// The future carries the Verdict, or the error the batch hit. Throws
  /// std::invalid_argument on bad shape and std::runtime_error after
  /// shutdown. When `deadline` is set and passes before the batcher
  /// reaches the request, the future carries DeadlineExceeded instead.
  std::future<polygraph::Verdict> submit(
      Tensor image,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// Non-blocking submit; nullopt (and a rejected tick) when the queue is
  /// full or the runtime stopped.
  std::optional<std::future<polygraph::Verdict>> try_submit(
      Tensor image,
      std::optional<std::chrono::steady_clock::time_point> deadline =
          std::nullopt);

  /// Stops accepting requests, serves everything already queued, and joins
  /// the pipeline. Idempotent; called by the destructor.
  void shutdown();

  const RuntimeOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// Live circuit-breaker state (thread-safe reads).
  const MemberHealth& health() const { return health_; }

  /// One synchronous scrub sweep (CRC verify + heal/fence); see
  /// WeightScrubber. Runs regardless of whether the background scrubber
  /// is enabled — tests and operators use this for deterministic checks.
  ScrubReport scrub_now() { return scrubber_->scrub_once(); }

  /// The background scrubber (running() tells whether sweeps are active).
  const WeightScrubber& scrubber() const { return *scrubber_; }

  /// One synchronous replacement pass over every fenced member slot; see
  /// MemberReplacer::replace_now. Works whether or not the background
  /// replacer thread is running (it needs a configured factory).
  ReplaceReport replace_now() { return replacer_->replace_now(); }

  /// The background replacer (running() tells whether the loop is active).
  const MemberReplacer& replacer() const { return *replacer_; }

  /// Runs `fn` while holding the inference-vs-mutation swap mutex, so it
  /// may safely mutate live member weights (fault-injection campaigns and
  /// tests use this; nothing else should need it). Do not submit from
  /// inside `fn` — the batcher may be blocked on this mutex.
  template <typename Fn>
  auto with_swap_lock(Fn&& fn) {
    std::lock_guard guard(swap_mutex_);
    return std::forward<Fn>(fn)();
  }

  /// The owned system; reconfigure (thresholds, staging) only while no
  /// requests are in flight.
  polygraph::PolygraphSystem& system() { return system_; }

 private:
  struct Request {
    Tensor image;
    std::promise<polygraph::Verdict> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  Request make_request(
      Tensor image,
      std::optional<std::chrono::steady_clock::time_point> deadline) const;
  void batcher_loop();
  void run_batch(std::vector<Request>& batch);
  void record_verdict(const polygraph::Verdict& verdict,
                      const polygraph::BatchReport& report);
  /// A member just left the quorum: refresh the gauge, wake the replacer.
  void on_member_fenced();

  polygraph::PolygraphSystem system_;
  RuntimeOptions options_;
  MetricsRegistry metrics_;
  MemberHealth health_;
  MpmcQueue<Request> queue_;
  ThreadPool pool_;
  /// Serializes inference (run_batch) against scrubber/replacer swaps.
  std::mutex swap_mutex_;
  std::unique_ptr<WeightScrubber> scrubber_;
  std::unique_ptr<MemberReplacer> replacer_;
  std::atomic<bool> stopped_{false};
  std::jthread batcher_;  // last: must die before the members it uses
};

}  // namespace pgmr::runtime
