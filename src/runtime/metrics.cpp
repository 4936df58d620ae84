#include "runtime/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pgmr::runtime {

std::uint64_t histogram_quantile(const Histogram& buckets, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest rank r with r/total >= q (at least 1).
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= target) return kLatencyBucketBounds[b];
  }
  return kLatencyBucketBounds.back();
}

namespace {

void dump(std::string& out, const char* name, std::uint64_t v) {
  char line[96];
  std::snprintf(line, sizeof(line), "%-24s %llu\n", name,
                static_cast<unsigned long long>(v));
  out += line;
}

void dump(std::string& out, const char* name,
          const std::vector<std::uint64_t>& per_member) {
  char slot[64];
  for (std::size_t m = 0; m < per_member.size(); ++m) {
    std::snprintf(slot, sizeof(slot), "%s[%zu]", name, m);
    dump(out, slot, per_member[m]);
  }
}

void dump(std::string& out, const char* name, const Histogram& h) {
  char quantile[64];
  for (const double q : {0.5, 0.9, 0.99}) {
    std::snprintf(quantile, sizeof(quantile), "%s_p%.0f_us", name, q * 100);
    dump(out, quantile, histogram_quantile(h, q));
  }
}

void merge_into(std::uint64_t& into, std::uint64_t part, Merge rule) {
  into = rule == Merge::max ? std::max(into, part) : into + part;
}

/// into[i] += part[i], growing into to fit (shards may differ in ensemble
/// width; absent slots count zero).
void merge_into(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& part, Merge) {
  if (part.size() > into.size()) into.resize(part.size(), 0);
  for (std::size_t i = 0; i < part.size(); ++i) into[i] += part[i];
}

void merge_into(Histogram& into, const Histogram& part, Merge) {
  for (std::size_t b = 0; b < part.size(); ++b) into[b] += part[b];
}

using Counter = std::atomic<std::uint64_t>;

void load_into(std::uint64_t& out, const Counter& in) {
  out = in.load(std::memory_order_relaxed);
}

void load_into(std::vector<std::uint64_t>& out,
               const std::vector<Counter>& in) {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) load_into(out[i], in[i]);
}

void load_into(Histogram& out,
               const std::array<Counter, kLatencyBucketBounds.size()>& in) {
  for (std::size_t b = 0; b < in.size(); ++b) load_into(out[b], in[b]);
}

}  // namespace

std::string MetricsSnapshot::to_string() const {
  std::string out;
  for_each_metric([&](const char* name, auto field, Merge) {
    dump(out, name, this->*field);
  });
  char line[96];
  std::snprintf(line, sizeof(line), "%-24s %.2f\n", "mean_batch_size",
                mean_batch_size());
  out += line;
  return out;
}

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& p : parts) {
    for_each_metric([&](const char*, auto field, Merge rule) {
      merge_into(merged.*field, p.*field, rule);
    });
  }
  return merged;
}

MetricsRegistry::MetricsRegistry(std::size_t members) : quorum_size_{members} {
#define PGMR_NONE(...)
#define PGMR_SIZE(name) name##_ = std::vector<Counter>(members);
  PGMR_METRICS(PGMR_NONE, PGMR_SIZE, PGMR_NONE, PGMR_NONE)
#undef PGMR_NONE
#undef PGMR_SIZE
}

void MetricsRegistry::on_batch(std::uint64_t size) {
  add(batches_);
  add(batch_size_sum_, size);
  std::uint64_t seen = max_batch_size_.load(std::memory_order_relaxed);
  while (size > seen && !max_batch_size_.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}

std::size_t MetricsRegistry::bucket_of(std::uint64_t micros) {
  // The last bound is UINT64_MAX, so some bucket always takes the sample.
  return static_cast<std::size_t>(
      std::lower_bound(kLatencyBucketBounds.begin(),
                       kLatencyBucketBounds.end(), micros) -
      kLatencyBucketBounds.begin());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
#define PGMR_COPY(name, ...) load_into(s.name, name##_);
#define PGMR_COPY_MEAN(count, total, mean) PGMR_COPY(count) PGMR_COPY(total)
  PGMR_METRICS(PGMR_COPY, PGMR_COPY, PGMR_COPY_MEAN, PGMR_COPY)
#undef PGMR_COPY
#undef PGMR_COPY_MEAN
  return s;
}

}  // namespace pgmr::runtime
