// Embedded serving metrics: atomic counters plus fixed-bucket histograms,
// so runtime behaviour is observable without external tooling.
//
// Writers (submitters, the batcher) bump atomics with relaxed ordering —
// metrics never synchronize the data path. Readers take a snapshot(),
// which is a plain value: consistent enough for reporting, free of locks.
//
// Every metric is declared once, in PGMR_METRICS below. The snapshot
// fields, the registry atomics, snapshot(), to_string(), merge_snapshots()
// and the proc wire codec are generated from that list, so a metric added
// there is stored, dumped, merged and shipped with no further edits.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pgmr::runtime {

/// Geometric latency buckets: bucket b counts samples with
/// micros <= kLatencyBucketBounds[b]; the last bucket is unbounded.
inline constexpr std::array<std::uint64_t, 16> kLatencyBucketBounds = {
    50,     100,    200,     400,     800,     1600,     3200,     6400,
    12800,  25600,  51200,   102400,  204800,  409600,   819200,
    UINT64_MAX};

/// Per-bucket sample counts of one microsecond histogram. Every histogram
/// shares kLatencyBucketBounds, so merged quantiles equal the quantiles of
/// the pooled samples.
using Histogram = std::array<std::uint64_t, kLatencyBucketBounds.size()>;

/// Nearest-rank value (micros) at quantile q in [0,1], estimated as the
/// upper bound of the bucket holding that rank (conservative); 0 if empty.
std::uint64_t histogram_quantile(const Histogram& buckets, double q);

/// How merge_snapshots combines one field across shards.
enum class Merge { sum, max };

// The metric table. All counts are cumulative since construction.
//   SCALAR(name, merge)       one counter, merged across shards by `merge`
//   MEMBER(name)              one counter per ensemble member; merges
//                             slot-wise, padded to the widest ensemble
//   MEAN(count, sum, mean)    two summed counters; mean() is sum / count
//   HISTOGRAM(name, quantile) a Histogram; merges bucket-wise;
//                             quantile(q) reads it (see histogram_quantile)
#define PGMR_METRICS(SCALAR, MEMBER, MEAN, HISTOGRAM)                        \
  SCALAR(requests_submitted, sum)                                           \
  SCALAR(requests_completed, sum)                                           \
  SCALAR(requests_rejected, sum)                                            \
  SCALAR(requests_shed, sum) /* deadline-expired drops */                   \
  MEAN(batches, batch_size_sum, mean_batch_size) /* coalescing */           \
  SCALAR(max_batch_size, max)                                               \
  SCALAR(reliable, sum) /* verdict quality split */                         \
  SCALAR(unreliable, sum)                                                   \
  SCALAR(degraded_verdicts, sum) /* served without full quorum */           \
  MEMBER(member_activations)     /* RADE activation counts */               \
  MEMBER(member_faults)          /* fault-isolation activity */             \
  MEMBER(quarantine_events)                                                 \
  SCALAR(scrub_cycles, sum) /* weight-scrubber sweeps */                    \
  SCALAR(replacements_started, sum) /* member-replacer activity */          \
  SCALAR(replacements_completed, sum)                                       \
  SCALAR(replacements_failed, sum)                                          \
  SCALAR(quorum_size, sum) /* gauge: members in service; sums fleet-wide */ \
  MEMBER(crc_mismatches)   /* scrubber detections */                        \
  MEMBER(weight_reloads)   /* scrubber heals */                             \
  HISTOGRAM(latency_buckets, latency_quantile_us) /* end to end */          \
  /* swap-mutex hold per scrubber acquisition (one per member per sweep) */ \
  HISTOGRAM(scrub_hold_buckets, scrub_hold_quantile_us)

/// A plain-value copy of every metric, safe to pass around and print.
struct MetricsSnapshot {
#define PGMR_SCALAR(name, merge) std::uint64_t name = 0;
#define PGMR_MEMBER(name) std::vector<std::uint64_t> name;
#define PGMR_MEAN(count, total, mean)                                     \
  std::uint64_t count = 0;                                               \
  std::uint64_t total = 0;                                               \
  double mean() const {                                                  \
    return count ? static_cast<double>(total) / static_cast<double>(count) \
                 : 0.0;                                                  \
  }
#define PGMR_HISTOGRAM(name, quantile) \
  Histogram name{};                    \
  std::uint64_t quantile(double q) const { return histogram_quantile(name, q); }
  PGMR_METRICS(PGMR_SCALAR, PGMR_MEMBER, PGMR_MEAN, PGMR_HISTOGRAM)
#undef PGMR_SCALAR
#undef PGMR_MEMBER
#undef PGMR_MEAN
#undef PGMR_HISTOGRAM

  /// Multi-line "name value" text dump, one metric per line.
  std::string to_string() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Calls f(name, &MetricsSnapshot::field, merge) for every snapshot field
/// in table order: a MEAN visits its count and sum, vectors and histograms
/// visit with Merge::sum. The field type (std::uint64_t, per-member vector
/// or Histogram) selects what the caller does with it.
template <typename F>
constexpr void for_each_metric(F&& f) {
#define PGMR_SCALAR(name, merge) \
  f(#name, &MetricsSnapshot::name, Merge::merge);
#define PGMR_SUMMED(name, ...) f(#name, &MetricsSnapshot::name, Merge::sum);
#define PGMR_MEAN(count, total, mean) PGMR_SUMMED(count) PGMR_SUMMED(total)
  PGMR_METRICS(PGMR_SCALAR, PGMR_SUMMED, PGMR_MEAN, PGMR_SUMMED)
#undef PGMR_SCALAR
#undef PGMR_SUMMED
#undef PGMR_MEAN
}

/// Cross-shard aggregation, field by field as the table's merge rules say.
/// The fleet router reports through this so serve-bench-style reports work
/// over N runtime replicas unchanged.
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts);

/// The live registry the runtime writes into.
class MetricsRegistry {
 public:
  /// `members` sizes the per-member counters.
  explicit MetricsRegistry(std::size_t members);

  void on_submitted() { add(requests_submitted_); }
  void on_rejected() { add(requests_rejected_); }
  void on_shed() { add(requests_shed_); }

  void on_batch(std::uint64_t size);
  void on_verdict(bool is_reliable) {
    add(is_reliable ? reliable_ : unreliable_);
    add(requests_completed_);
  }
  void on_degraded_verdict() { add(degraded_verdicts_); }
  void on_member_activated(std::size_t member) {
    add(member_activations_[member]);
  }
  void on_member_fault(std::size_t member) { add(member_faults_[member]); }
  void on_quarantine(std::size_t member) { add(quarantine_events_[member]); }
  void on_scrub_cycle() { add(scrub_cycles_); }
  void on_crc_mismatch(std::size_t member) { add(crc_mismatches_[member]); }
  void on_weight_reload(std::size_t member) { add(weight_reloads_[member]); }
  void on_replacement_started() { add(replacements_started_); }
  void on_replacement_completed() { add(replacements_completed_); }
  void on_replacement_failed() { add(replacements_failed_); }
  /// Gauge, not a counter: the current in-service member count. Updated
  /// whenever a member is fenced or a replacement restores the slot.
  void set_quorum_size(std::uint64_t members) {
    quorum_size_.store(members, std::memory_order_relaxed);
  }
  void on_latency_us(std::uint64_t micros) {
    add(latency_buckets_[bucket_of(micros)]);
  }
  void on_scrub_hold_us(std::uint64_t micros) {
    add(scrub_hold_buckets_[bucket_of(micros)]);
  }

  std::size_t members() const { return member_activations_.size(); }

  /// Requests accepted so far (relaxed read; cheap enough for routing).
  std::uint64_t submitted() const {
    return requests_submitted_.load(std::memory_order_relaxed);
  }

  /// Accepted requests not yet answered or shed — the shard-load signal
  /// the fleet router's least-loaded spill uses. The three relaxed loads
  /// are not a consistent cut, so the difference saturates at zero.
  std::uint64_t in_flight() const {
    const std::uint64_t in = submitted();
    const std::uint64_t out =
        requests_completed_.load(std::memory_order_relaxed) +
        requests_shed_.load(std::memory_order_relaxed);
    return in > out ? in - out : 0;
  }

  MetricsSnapshot snapshot() const;

 private:
  using Counter = std::atomic<std::uint64_t>;

  static void add(Counter& counter, std::uint64_t delta = 1) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Index of the first bucket whose bound is >= micros.
  static std::size_t bucket_of(std::uint64_t micros);

  // One atomic per table field, named after it with a trailing underscore.
#define PGMR_SCALAR(name, merge) Counter name##_{0};
#define PGMR_MEMBER(name) std::vector<Counter> name##_;
#define PGMR_MEAN(count, total, mean) \
  Counter count##_{0};                \
  Counter total##_{0};
#define PGMR_HISTOGRAM(name, quantile) \
  std::array<Counter, kLatencyBucketBounds.size()> name##_{};
  PGMR_METRICS(PGMR_SCALAR, PGMR_MEMBER, PGMR_MEAN, PGMR_HISTOGRAM)
#undef PGMR_SCALAR
#undef PGMR_MEMBER
#undef PGMR_MEAN
#undef PGMR_HISTOGRAM
};

}  // namespace pgmr::runtime
