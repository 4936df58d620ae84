// WeightScrubber: background re-verification of live member weights.
//
// ABFT catches corruptions large enough to break a GEMM identity *during*
// an inference; the scrubber closes the remaining gap. Off the hot path it
// periodically re-computes every member's parameter CRC32s against the
// snapshot blessed at load time, catching corruptions ABFT's tolerance
// hides (mantissa-LSB flips, bias rot in layers a given input never
// excites) before they accumulate. On a mismatch it self-heals by
// atomically rebuilding the member from its zoo archive; when the archive
// itself no longer reproduces the blessed CRCs (rotted or unreadable), the
// member is permanently fenced out of the serving quorum instead.
//
// One policy, no budgets: every sweep is a full pass over every member,
// and each acquisition of the runtime's swap mutex — the same mutex the
// batcher holds across a batch, so weights never change mid-inference and
// fence decisions never race on_result — verifies exactly one CRC chunk
// (quant::QuantizedNetwork::kCrcChunkElems floats, or a whole smaller
// tensor). A heal or fence runs under the acquisition that found the
// mismatch. A sweep therefore never delays a batch by more than one
// chunk's CRC; the sweep interval alone trades CPU for detection latency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>

#include "mr/ensemble.h"
#include "runtime/health.h"
#include "runtime/metrics.h"

namespace pgmr::runtime {

/// What one scrub sweep over the ensemble found and did.
struct ScrubReport {
  std::size_t members_checked = 0;  ///< members whose CRCs were re-verified
  std::size_t tensors_checked = 0;  ///< parameter tensors fully CRC-verified
  std::size_t chunks_checked = 0;   ///< CRC chunks verified
  std::size_t mismatches = 0;       ///< members with a corrupted parameter
  std::size_t reloads = 0;          ///< members healed from their archive
  std::size_t fenced = 0;           ///< members fenced (archive bad too)
};

class WeightScrubber {
 public:
  struct Options {
    /// Delay between background sweeps. start() ignores non-positive
    /// intervals (scrub_once() still works for synchronous use).
    std::chrono::milliseconds interval{1000};
  };

  /// All referees must outlive the scrubber. `swap_mutex` is the runtime's
  /// inference-vs-heal mutex (see header comment).
  WeightScrubber(mr::Ensemble& ensemble, MemberHealth& health,
                 MetricsRegistry& metrics, std::mutex& swap_mutex,
                 Options options);

  ~WeightScrubber();

  WeightScrubber(const WeightScrubber&) = delete;
  WeightScrubber& operator=(const WeightScrubber&) = delete;

  /// Launches the background sweep thread. No-op when already running or
  /// when options().interval is non-positive.
  void start();

  /// Stops and joins the background thread. Idempotent.
  void stop();

  bool running() const { return thread_.joinable(); }
  const Options& options() const { return options_; }

  /// Invoked (from the scrubbing thread, after the member's swap-mutex
  /// scope) each time a sweep fences a member — the runtime hooks the
  /// MemberReplacer wake-up and quorum gauge here. Set before start().
  void set_on_fence(std::function<void()> callback) {
    on_fence_ = std::move(callback);
  }

  /// One synchronous full sweep: every chunk of every unfenced member is
  /// verified, one swap-mutex acquisition per chunk, and a corrupt member
  /// is healed or fenced. Callable from any thread (used directly by tests
  /// and by the background loop).
  ScrubReport scrub_once();

 private:
  void loop(std::stop_token st);

  /// Verifies member `m` chunk by chunk into `report`; stops at the first
  /// corrupt chunk (after healing or fencing the member).
  void scrub_member(std::size_t m, ScrubReport& report);

  mr::Ensemble& ensemble_;
  MemberHealth& health_;
  MetricsRegistry& metrics_;
  std::mutex& swap_mutex_;
  Options options_;
  std::function<void()> on_fence_;

  std::mutex wake_mutex_;
  std::condition_variable_any wake_;
  std::jthread thread_;
};

}  // namespace pgmr::runtime
