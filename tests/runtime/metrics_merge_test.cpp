// merge_snapshots properties: counters sum, per-member vectors pad to the
// widest ensemble and sum slot-wise, histograms merge bucket-wise (so a
// merged quantile equals the quantile of the pooled samples — the property
// that lets fleet-wide latency reports read like single-replica ones),
// max_batch_size takes the max, the quorum gauge sums, and merging races
// cleanly against live writers (the fleet router snapshots shards that are
// still serving).
#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

namespace pgmr::runtime {
namespace {

TEST(MetricsMergeTest, EmptyMergeIsTheZeroSnapshot) {
  const MetricsSnapshot merged = merge_snapshots({});
  EXPECT_EQ(merged.requests_submitted, 0U);
  EXPECT_EQ(merged.requests_completed, 0U);
  EXPECT_TRUE(merged.member_activations.empty());
  std::uint64_t samples = 0;
  for (std::uint64_t b : merged.latency_buckets) samples += b;
  EXPECT_EQ(samples, 0U);
}

TEST(MetricsMergeTest, SingletonMergeIsTheIdentity) {
  MetricsRegistry reg(2);
  reg.on_submitted();
  reg.on_batch(3);
  reg.on_verdict(true);
  reg.on_member_activated(1);
  reg.on_latency_us(120);
  reg.on_scrub_hold_us(40);
  reg.set_quorum_size(2);
  const MetricsSnapshot one = reg.snapshot();
  // to_string covers every exported field, so text equality is a full
  // structural identity check.
  EXPECT_EQ(merge_snapshots({one}).to_string(), one.to_string());
}

TEST(MetricsMergeTest, CountersSumAcrossParts) {
  MetricsRegistry a(1);
  MetricsRegistry b(1);
  for (int i = 0; i < 3; ++i) a.on_submitted();
  for (int i = 0; i < 5; ++i) b.on_submitted();
  a.on_rejected();
  b.on_shed();
  a.on_batch(2);   // batches=1 size_sum=2 max=2
  b.on_batch(7);   // batches=1 size_sum=7 max=7
  a.on_verdict(true);
  a.on_verdict(false);
  b.on_verdict(true);
  b.on_degraded_verdict();
  a.on_scrub_cycle();
  b.on_scrub_cycle();
  b.on_scrub_cycle();
  a.on_replacement_started();
  a.on_replacement_completed();
  b.on_replacement_failed();
  a.set_quorum_size(4);
  b.set_quorum_size(3);

  const MetricsSnapshot m = merge_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_EQ(m.requests_submitted, 8U);
  EXPECT_EQ(m.requests_rejected, 1U);
  EXPECT_EQ(m.requests_shed, 1U);
  EXPECT_EQ(m.batches, 2U);
  EXPECT_EQ(m.batch_size_sum, 9U);
  EXPECT_EQ(m.max_batch_size, 7U);  // max, not sum
  EXPECT_EQ(m.reliable, 2U);
  EXPECT_EQ(m.unreliable, 1U);
  EXPECT_EQ(m.requests_completed, 3U);
  EXPECT_EQ(m.degraded_verdicts, 1U);
  EXPECT_EQ(m.scrub_cycles, 3U);
  EXPECT_EQ(m.replacements_started, 1U);
  EXPECT_EQ(m.replacements_completed, 1U);
  EXPECT_EQ(m.replacements_failed, 1U);
  // The gauge sums: total members in service across the fleet.
  EXPECT_EQ(m.quorum_size, 7U);
  EXPECT_DOUBLE_EQ(m.mean_batch_size(), 4.5);
}

/// Every table field set to a distinct nonzero value counting up from
/// `first`; per-member vectors are `members` wide.
MetricsSnapshot distinct_snapshot(std::uint64_t first, std::size_t members) {
  MetricsSnapshot s;
  std::uint64_t next = first;
  for_each_metric([&](const char*, auto field, Merge) {
    auto& value = s.*field;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::uint64_t>) {
      value = next++;
    } else {
      if constexpr (requires { value.resize(members); }) {
        value.resize(members);
      }
      for (std::uint64_t& x : value) x = next++;
    }
  });
  return s;
}

TEST(MetricsMergeTest, EveryFieldFollowsItsMergeRuleAndIsDumped) {
  // Walks the metric table, so a field added to it is covered here with no
  // edit to this test. The two parts differ in ensemble width.
  const MetricsSnapshot a = distinct_snapshot(1, 2);
  const MetricsSnapshot b = distinct_snapshot(1000, 3);
  const MetricsSnapshot m = merge_snapshots({a, b});
  const std::string text = m.to_string();
  for_each_metric([&](const char* name, auto field, Merge rule) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
    const auto& merged = m.*field;
    const auto& x = a.*field;
    const auto& y = b.*field;
    if constexpr (std::is_same_v<std::decay_t<decltype(merged)>,
                                 std::uint64_t>) {
      EXPECT_EQ(merged, rule == Merge::max ? std::max(x, y) : x + y) << name;
    } else {
      ASSERT_EQ(merged.size(), std::max(x.size(), y.size())) << name;
      for (std::size_t i = 0; i < merged.size(); ++i) {
        const std::uint64_t xi = i < x.size() ? x[i] : 0;
        const std::uint64_t yi = i < y.size() ? y[i] : 0;
        EXPECT_EQ(merged[i], xi + yi) << name << "[" << i << "]";
      }
    }
  });
}

TEST(MetricsMergeTest, MemberVectorsPadToTheWidestEnsemble) {
  MetricsRegistry narrow(1);
  MetricsRegistry wide(3);
  narrow.on_member_activated(0);
  narrow.on_member_fault(0);
  wide.on_member_activated(0);
  wide.on_member_activated(2);
  wide.on_quarantine(1);
  wide.on_crc_mismatch(2);
  wide.on_weight_reload(2);

  const MetricsSnapshot m =
      merge_snapshots({narrow.snapshot(), wide.snapshot()});
  ASSERT_EQ(m.member_activations.size(), 3U);
  EXPECT_EQ(m.member_activations[0], 2U);  // 1 + 1
  EXPECT_EQ(m.member_activations[1], 0U);
  EXPECT_EQ(m.member_activations[2], 1U);  // wide only
  EXPECT_EQ(m.member_faults[0], 1U);
  EXPECT_EQ(m.quarantine_events[1], 1U);
  EXPECT_EQ(m.crc_mismatches[2], 1U);
  EXPECT_EQ(m.weight_reloads[2], 1U);
}

TEST(MetricsMergeTest, MergedQuantilesEqualPooledSampleQuantiles) {
  // Two disjoint sample streams recorded into separate registries, plus a
  // third registry fed the pooled stream. Because every registry shares
  // kLatencyBucketBounds, the bucket-wise merge must reproduce the pooled
  // histogram exactly — and with it every quantile.
  const std::vector<std::uint64_t> first = {5, 70, 70, 500, 3000, 100000};
  const std::vector<std::uint64_t> second = {60, 900, 900, 20000, 999999};
  MetricsRegistry a(1);
  MetricsRegistry b(1);
  MetricsRegistry pooled(1);
  for (std::uint64_t us : first) {
    a.on_latency_us(us);
    a.on_scrub_hold_us(us);
    pooled.on_latency_us(us);
    pooled.on_scrub_hold_us(us);
  }
  for (std::uint64_t us : second) {
    b.on_latency_us(us);
    b.on_scrub_hold_us(us);
    pooled.on_latency_us(us);
    pooled.on_scrub_hold_us(us);
  }

  const MetricsSnapshot merged = merge_snapshots({a.snapshot(), b.snapshot()});
  const MetricsSnapshot expect = pooled.snapshot();
  EXPECT_EQ(merged.latency_buckets, expect.latency_buckets);
  EXPECT_EQ(merged.scrub_hold_buckets, expect.scrub_hold_buckets);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.latency_quantile_us(q), expect.latency_quantile_us(q))
        << "q=" << q;
    EXPECT_EQ(merged.scrub_hold_quantile_us(q),
              expect.scrub_hold_quantile_us(q))
        << "q=" << q;
  }
}

TEST(MetricsMergeTest, MergeOrderDoesNotMatter) {
  MetricsRegistry a(2);
  MetricsRegistry b(1);
  a.on_submitted();
  a.on_batch(4);
  a.on_member_fault(1);
  a.on_latency_us(90);
  b.on_submitted();
  b.on_batch(2);
  b.on_latency_us(4000);
  const MetricsSnapshot ab = merge_snapshots({a.snapshot(), b.snapshot()});
  const MetricsSnapshot ba = merge_snapshots({b.snapshot(), a.snapshot()});
  EXPECT_EQ(ab.to_string(), ba.to_string());
}

TEST(MetricsMergeTest, MergingRacesCleanlyWithLiveWriters) {
  // The fleet router merges per-shard snapshots while those shards keep
  // serving. Writers hammer two registries from four threads while a
  // merger thread repeatedly snapshots + merges; under TSan this documents
  // that snapshot/merge never race the relaxed writers, and the final
  // merge must account for every recorded event.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  MetricsRegistry regs[2] = {MetricsRegistry(2), MetricsRegistry(2)};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&regs, w] {
      MetricsRegistry& reg = regs[w % 2];
      for (int i = 0; i < kPerWriter; ++i) {
        reg.on_submitted();
        reg.on_verdict(i % 3 != 0);
        reg.on_latency_us(static_cast<std::uint64_t>(50 + (i % 7) * 700));
        reg.on_member_activated(static_cast<std::size_t>(i % 2));
        if (i % 16 == 0) reg.on_batch(static_cast<std::uint64_t>(1 + i % 8));
      }
    });
  }
  std::uint64_t observed = 0;
  std::thread merger([&regs, &observed] {
    for (int i = 0; i < 200; ++i) {
      const MetricsSnapshot m =
          merge_snapshots({regs[0].snapshot(), regs[1].snapshot()});
      EXPECT_LE(observed, m.requests_submitted);  // monotone under merge
      observed = m.requests_submitted;
    }
  });
  for (std::thread& t : writers) t.join();
  merger.join();

  const MetricsSnapshot final_merge =
      merge_snapshots({regs[0].snapshot(), regs[1].snapshot()});
  const auto total = static_cast<std::uint64_t>(kWriters) * kPerWriter;
  EXPECT_EQ(final_merge.requests_submitted, total);
  EXPECT_EQ(final_merge.requests_completed, total);
  EXPECT_EQ(final_merge.member_activations[0] + final_merge.member_activations[1],
            total);
  std::uint64_t samples = 0;
  for (std::uint64_t b : final_merge.latency_buckets) samples += b;
  EXPECT_EQ(samples, total);
}

}  // namespace
}  // namespace pgmr::runtime
