// Spans recorded from the benchmark's own files, around the calls into
// each layer of the serving stack:
//
//   request   submit -> verdict, timed by the load driver (RequestLog)
//   member    a timing Preprocessor decorator (TimingPrep) marks the start
//   prep      the decorator's own apply() call
//   layer     the gap between consecutive QuantizedNetwork forward taps;
//             layer 0 starts when prep ends
//   batch     derived: first member start -> last member end
//
// Spans are kept in memory and analysed (and written as Chrome trace-event
// JSON) only after the serving stack has shut down.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "polygraph/system.h"
#include "prep/preprocessor.h"

namespace pgmr_bench {

/// steady_clock time in nanoseconds; every recorded timestamp uses it.
std::int64_t now_ns();

/// One member's timing of one batch. layer_end[l] == 0 means layer l did
/// not tap (the BatchNorm half of a conv->BN pair folded under full ABFT).
struct MemberBatch {
  std::int64_t n = 0;
  std::int64_t prep_begin = 0;
  std::int64_t prep_end = 0;
  std::array<std::int64_t, kMaxLayers> layer_end{};

  /// The last tap, i.e. where the member span ends.
  std::int64_t end() const;
};

/// One member's span buffer. Written by whichever pool thread runs the
/// member — one at a time, since a runtime keeps one batch in flight — and
/// read only after the runtime has shut down. A deque grows without moving
/// recorded spans, so recording never pauses to copy. Records nothing until
/// arm(), so offline profiling passes stay out of the batch sequence.
class MemberSpans {
 public:
  explicit MemberSpans(std::string prep) : prep_(std::move(prep)) {}

  void arm() { armed_ = true; }
  void begin_batch(std::int64_t n);
  void end_prep();
  void end_layer(int layer);

  const std::string& prep() const { return prep_; }
  std::size_t size() const { return buf_.size(); }
  const MemberBatch& operator[](std::size_t i) const { return buf_[i]; }

 private:
  std::string prep_;
  std::deque<MemberBatch> buf_;
  bool armed_ = false;
};

/// Spans of one serving replica (one runtime): one buffer per member slot.
using ReplicaSpans = std::vector<std::unique_ptr<MemberSpans>>;

/// Forwards apply() unchanged, timing it into `spans`.
class TimingPrep final : public pgmr::prep::Preprocessor {
 public:
  TimingPrep(std::unique_ptr<pgmr::prep::Preprocessor> inner,
             MemberSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  pgmr::Tensor apply(const pgmr::Tensor& images) const override;

 private:
  std::unique_ptr<pgmr::prep::Preprocessor> inner_;
  MemberSpans* spans_;
};

/// One request as the load driver saw it.
struct RequestRecord {
  std::size_t slot = 0;  ///< position in the log = submission order
  std::int64_t due = 0;  ///< open loop: scheduled send; closed: submit_begin
  std::int64_t submit_begin = 0;
  std::int64_t submit_end = 0;
  std::int64_t done = 0;  ///< verdict (or error) collected
  std::int32_t input = -1;
  std::int32_t shard = 0;
  bool failed = false;
  pgmr::polygraph::Verdict verdict;
};

/// The requests of one pass, in submission order. A claimed record keeps
/// its address, so its client fills it in without holding the log's lock;
/// the log is read only after every client has finished.
class RequestLog {
 public:
  RequestRecord& claim() {
    std::lock_guard lock(mutex_);
    RequestRecord& r = records_.emplace_back();
    r.slot = records_.size() - 1;
    return r;
  }
  std::size_t size() const { return records_.size(); }
  const RequestRecord& operator[](std::size_t i) const { return records_[i]; }

 private:
  std::mutex mutex_;
  std::deque<RequestRecord> records_;
};

/// Per-request layer accounting of one traced pass (all values per
/// request, summed over members, over batches inside the window).
struct SpanReport {
  std::int64_t batches = 0;
  std::int64_t batched_requests = 0;
  double member_us = 0.0;  ///< member spans (prep start -> last tap)
  double layers_us = 0.0;  ///< sum of layer spans
  std::array<double, kMaxLayers> layer_us{};
  std::vector<double> prep_us;  ///< indexed like all_prep_specs()
  std::vector<double> batch_us;  ///< service span of each batch
  std::vector<double> skew_us;   ///< slowest minus fastest member, per batch
  std::vector<double> wait_us;   ///< submit -> batch start, per request
  std::vector<double> accounted;  ///< (wait + batch span) / latency
};

/// Maps requests to batches and sums the spans inside [ws, we].
/// `replicas[s]` are the member spans of shard s; requests of shard s are
/// served FIFO, and batch b of a shard takes the next N of its requests.
SpanReport analyze_spans(const RequestLog& log,
                         const std::vector<ReplicaSpans>& replicas,
                         std::int64_t ws, std::int64_t we);

/// Writes the spans as Chrome trace-event JSON (opens in Perfetto):
/// requests, batches, members, prep and layers with request/batch ids and
/// parent links. At most `max_batches` batches per shard are written.
void write_chrome_trace(const std::string& path, const RequestLog& log,
                        const std::vector<ReplicaSpans>& replicas,
                        std::size_t max_batches);

}  // namespace pgmr_bench
