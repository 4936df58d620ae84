#include "runtime/scrubber.h"

#include <cstdint>

namespace pgmr::runtime {

WeightScrubber::WeightScrubber(mr::Ensemble& ensemble, MemberHealth& health,
                               MetricsRegistry& metrics,
                               std::mutex& swap_mutex, Options options)
    : ensemble_(ensemble),
      health_(health),
      metrics_(metrics),
      swap_mutex_(swap_mutex),
      options_(options) {}

WeightScrubber::~WeightScrubber() { stop(); }

void WeightScrubber::start() {
  if (thread_.joinable() || options_.interval.count() <= 0) return;
  thread_ = std::jthread([this](std::stop_token st) { loop(st); });
}

void WeightScrubber::stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  wake_.notify_all();
  thread_.join();
  thread_ = std::jthread();
}

void WeightScrubber::loop(std::stop_token st) {
  std::unique_lock lock(wake_mutex_);
  while (!st.stop_requested()) {
    // Sleep first so construction + start() doesn't race member setup in
    // tests that inject faults immediately after building the runtime.
    if (wake_.wait_for(lock, st, options_.interval,
                       [&st] { return st.stop_requested(); })) {
      return;
    }
    lock.unlock();
    scrub_once();
    lock.lock();
  }
}

ScrubReport WeightScrubber::scrub_once() {
  ScrubReport report;
  for (std::size_t m = 0; m < ensemble_.size(); ++m) scrub_member(m, report);
  metrics_.on_scrub_cycle();
  return report;
}

void WeightScrubber::scrub_member(std::size_t m, ScrubReport& report) {
  using clock = std::chrono::steady_clock;
  std::size_t tensor = 0;
  std::size_t chunk = 0;
  for (bool done = false; !done;) {
    bool fenced_now = false;
    std::uint64_t hold_us = 0;
    {
      std::lock_guard guard(swap_mutex_);
      const clock::time_point hold_start = clock::now();
      // Re-read the slot under every acquisition: a replace_now() hot-swap
      // or a fence may have landed since the previous chunk, changing the
      // member's state and its chunk layout.
      if (health_.state(m) == MemberState::fenced) return;
      mr::Member& member = ensemble_.member(m);
      quant::QuantizedNetwork& net = member.net();
      while (tensor < net.param_count() &&
             chunk >= net.param_chunk_count(tensor)) {
        ++tensor;
        chunk = 0;
      }
      if (tensor >= net.param_count()) return;
      if (tensor == 0 && chunk == 0) ++report.members_checked;

      ++report.chunks_checked;
      if (net.param_chunk_intact(tensor, chunk)) {
        if (++chunk == net.param_chunk_count(tensor)) {
          ++report.tensors_checked;
          ++tensor;
          chunk = 0;
          done = tensor == net.param_count();
        }
      } else {
        done = true;
        ++report.mismatches;
        metrics_.on_crc_mismatch(m);
        if (member.reload_params() == mr::Member::ReloadStatus::healed) {
          ++report.reloads;
          metrics_.on_weight_reload(m);
        } else {
          // No archive, unreadable archive, or an archive that no longer
          // reproduces the blessed CRCs: the member has no trustworthy
          // weight source left — remove it from the quorum permanently.
          ++report.fenced;
          health_.force_fence(m);
          fenced_now = true;
        }
      }
      hold_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                hold_start)
              .count());
    }
    metrics_.on_scrub_hold_us(hold_us);
    // Outside the swap-mutex scope: the hook may wake the replacer, whose
    // swap then proceeds without waiting on this sweep.
    if (fenced_now && on_fence_) on_fence_();
    // A batch blocked on the mutex gets it before the next chunk does: an
    // immediate re-lock would usually win the race against the woken
    // waiter and stretch its wait from one chunk to the whole sweep.
    std::this_thread::yield();
  }
}

}  // namespace pgmr::runtime
