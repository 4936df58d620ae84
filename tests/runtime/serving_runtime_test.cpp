// ServingRuntime end-to-end: batching, verdict parity with the serial
// path, shutdown semantics, metrics accounting, and RADE activation
// charging — all with small hand-built ensembles (no zoo cache needed).
#include "runtime/serving_runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::runtime {
namespace {

nn::Network tiny_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 3, 1, 1);
  conv->init(rng);
  layers.push_back(std::move(conv));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(4 * 8 * 8, 3);
  fc->init(rng);
  layers.push_back(std::move(fc));
  return nn::Network("tiny", std::move(layers));
}

mr::Ensemble tiny_ensemble(int members) {
  mr::Ensemble e;
  for (int m = 0; m < members; ++m) {
    e.add(mr::Member(std::make_unique<prep::Identity>(),
                     tiny_net(static_cast<std::uint64_t>(m) + 1)));
  }
  return e;
}

polygraph::PolygraphSystem tiny_system(int members) {
  polygraph::PolygraphSystem sys(tiny_ensemble(members));
  sys.set_thresholds({0.4F, 2});
  return sys;
}

Tensor random_images(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{n, 1, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

std::vector<std::int64_t> random_labels(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (auto& l : labels) l = rng.randint(0, 2);
  return labels;
}

RuntimeOptions fast_options(std::size_t threads) {
  RuntimeOptions o;
  o.threads = threads;
  o.max_batch = 8;
  o.max_delay = std::chrono::microseconds(500);
  o.queue_capacity = 64;
  return o;
}

TEST(ServingRuntimeTest, ParallelVerdictsMatchSerialPredictExactly) {
  constexpr std::int64_t kN = 40;
  const Tensor images = random_images(kN, 7);

  // Reference: the serial single-sample path on an identical system.
  polygraph::PolygraphSystem reference = tiny_system(3);
  std::vector<polygraph::Verdict> expected;
  for (std::int64_t n = 0; n < kN; ++n) {
    expected.push_back(reference.predict(images.slice_sample(n)));
  }

  ServingRuntime rt(tiny_system(3), fast_options(3));
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < kN; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  for (std::int64_t n = 0; n < kN; ++n) {
    const polygraph::Verdict v = futures[static_cast<std::size_t>(n)].get();
    EXPECT_EQ(v.label, expected[static_cast<std::size_t>(n)].label) << n;
    EXPECT_EQ(v.reliable, expected[static_cast<std::size_t>(n)].reliable) << n;
    EXPECT_EQ(v.votes, expected[static_cast<std::size_t>(n)].votes) << n;
    EXPECT_EQ(v.activated, 3) << n;
  }
}

TEST(ServingRuntimeTest, ParallelEvaluateMatchesSerialOutcome) {
  // The determinism regression: the same system evaluated serially and
  // through a multi-thread executor must produce identical Outcome counts.
  constexpr std::int64_t kN = 60;
  const Tensor images = random_images(kN, 11);
  const auto labels = random_labels(kN, 12);

  polygraph::PolygraphSystem sys = tiny_system(4);
  const mr::Outcome serial = sys.evaluate(images, labels);

  ThreadPool pool(4);
  const mr::Outcome parallel = sys.evaluate(images, labels, pool.executor());
  EXPECT_EQ(parallel.tp, serial.tp);
  EXPECT_EQ(parallel.fp, serial.fp);
  EXPECT_EQ(parallel.unreliable, serial.unreliable);
  EXPECT_EQ(parallel.total, serial.total);
}

TEST(ServingRuntimeTest, RejectsNonSingleSampleShapes) {
  ServingRuntime rt(tiny_system(2), fast_options(1));
  EXPECT_THROW(rt.submit(random_images(2, 1)), std::invalid_argument);
  EXPECT_THROW(rt.submit(Tensor(Shape{1, 8, 8})), std::invalid_argument);
}

TEST(ServingRuntimeTest, SubmitAfterShutdownThrows) {
  ServingRuntime rt(tiny_system(2), fast_options(1));
  rt.shutdown();
  rt.shutdown();  // idempotent
  EXPECT_THROW(rt.submit(random_images(1, 2)), std::runtime_error);
  EXPECT_FALSE(rt.try_submit(random_images(1, 3)).has_value());
  EXPECT_GE(rt.metrics_snapshot().requests_rejected, 1U);
}

TEST(ServingRuntimeTest, ShutdownServesEveryAcceptedRequest) {
  ServingRuntime rt(tiny_system(2), fast_options(2));
  const Tensor images = random_images(10, 4);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < 10; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  rt.shutdown();  // must drain, not drop
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.requests_submitted, 10U);
  EXPECT_EQ(s.requests_completed, 10U);
}

TEST(ServingRuntimeTest, MetricsAccountForEveryRequestAndBatchCap) {
  constexpr std::size_t kN = 30;
  ServingRuntime rt(tiny_system(3), fast_options(2));
  const Tensor images = random_images(kN, 5);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < static_cast<std::int64_t>(kN); ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  for (auto& f : futures) f.get();

  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.requests_submitted, kN);
  EXPECT_EQ(s.requests_completed, kN);
  EXPECT_EQ(s.reliable + s.unreliable, kN);
  EXPECT_EQ(s.batch_size_sum, kN);  // every request in exactly one batch
  EXPECT_GE(s.batches, (kN + 7) / 8);
  EXPECT_LE(s.max_batch_size, 8U);  // max_batch respected
  // Full (non-staged) activation: every member charged for every request.
  for (const auto a : s.member_activations) EXPECT_EQ(a, kN);
  std::uint64_t hist_total = 0;
  for (const auto b : s.latency_buckets) hist_total += b;
  EXPECT_EQ(hist_total, kN);
}

TEST(ServingRuntimeTest, StagedSystemChargesOnlyActivatedMembers) {
  polygraph::PolygraphSystem sys(tiny_ensemble(4));
  const Tensor val = random_images(40, 20);
  sys.enable_staged(val, random_labels(40, 21));
  sys.set_thresholds({0.0F, 2});

  ServingRuntime rt(std::move(sys), fast_options(2));
  const Tensor images = random_images(12, 22);
  std::vector<std::future<polygraph::Verdict>> futures;
  for (std::int64_t n = 0; n < 12; ++n) {
    futures.push_back(rt.submit(images.slice_sample(n)));
  }
  std::uint64_t activated_total = 0;
  for (auto& f : futures) {
    const polygraph::Verdict v = f.get();
    EXPECT_GE(v.activated, 2);
    EXPECT_LE(v.activated, 4);
    activated_total += static_cast<std::uint64_t>(v.activated);
  }
  const MetricsSnapshot s = rt.metrics_snapshot();
  std::uint64_t charged = 0;
  for (const auto a : s.member_activations) charged += a;
  EXPECT_EQ(charged, activated_total);
}

TEST(ServingRuntimeTest, GeometryMismatchFailsOnlyThatRequest) {
  RuntimeOptions opts = fast_options(1);
  opts.max_delay = std::chrono::milliseconds(50);  // encourage coalescing
  ServingRuntime rt(tiny_system(2), opts);
  auto good = rt.submit(random_images(1, 30));
  Rng rng(31);
  Tensor small(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < small.numel(); ++i) {
    small[i] = rng.uniform(0.0F, 1.0F);
  }
  auto bad = rt.submit(std::move(small));
  // Whether the 4x4 request shares a batch with the 8x8 one (head defines
  // the geometry, the mismatch is rejected individually) or lands in its
  // own batch (the net rejects the input), its future throws and the good
  // request is unaffected.
  EXPECT_NO_THROW(good.get());
  EXPECT_THROW(bad.get(), std::exception);
}

// ---- the work-conserving batcher -------------------------------------------

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

constexpr std::size_t kMaxBatch = 4;

RuntimeOptions batcher_options(std::chrono::microseconds max_delay) {
  RuntimeOptions o = fast_options(1);
  o.max_batch = kMaxBatch;
  o.max_delay = max_delay;
  return o;
}

/// Submits 2 * kMaxBatch requests while holding the swap lock. The batcher
/// pops the head and takes what has arrived by then (1..kMaxBatch
/// requests); that batch blocks on the lock in run_batch, and the rest
/// queue behind it. So at least kMaxBatch requests are queued when the lock
/// is released. The queue (capacity 64) never fills, so submitting under
/// the lock cannot block.
std::vector<std::future<polygraph::Verdict>> burst_behind_swap_lock(
    ServingRuntime& rt) {
  const Tensor images = random_images(2 * kMaxBatch, 50);
  std::vector<std::future<polygraph::Verdict>> futures;
  rt.with_swap_lock([&] {
    for (std::int64_t n = 0; n < static_cast<std::int64_t>(2 * kMaxBatch);
         ++n) {
      futures.push_back(rt.submit(images.slice_sample(n)));
    }
  });
  return futures;
}

TEST(ServingRuntimeTest, LoneRequestDoesNotWaitOutMaxDelay) {
  // max_delay is a cap on lingering after a full batch, not a wait: a
  // request that arrives alone goes out at once, every time.
  ServingRuntime rt(tiny_system(2), batcher_options(seconds(10)));
  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    const auto start = steady_clock::now();
    auto f = rt.submit(random_images(1, seed));
    ASSERT_EQ(f.wait_for(seconds(5)), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
    EXPECT_LT(steady_clock::now() - start, seconds(1));
  }
  EXPECT_EQ(rt.metrics_snapshot().batches, 3U);
}

TEST(ServingRuntimeTest, RequestsQueuedBehindARunningBatchGoOutAsOneFullBatch) {
  ServingRuntime rt(tiny_system(2), batcher_options(milliseconds(20)));
  for (auto& f : burst_behind_swap_lock(rt)) EXPECT_NO_THROW(f.get());
  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.batch_size_sum, 2 * kMaxBatch);
  EXPECT_EQ(s.max_batch_size, kMaxBatch);  // the queued ones went together
  EXPECT_LE(s.batches, 3U);
}

TEST(ServingRuntimeTest, PartialBatchAfterAFullOneIsClosedByTheCap) {
  // The burst's second batch is full, so the batcher then lingers: for the
  // burst's remainder or, when nothing remains, for the straggler below.
  // Either way one partial batch waits out the cap and then goes out; it
  // does not hang.
  constexpr milliseconds kCap(100);
  ServingRuntime rt(tiny_system(2), batcher_options(kCap));
  const auto start = steady_clock::now();
  for (auto& f : burst_behind_swap_lock(rt)) EXPECT_NO_THROW(f.get());
  auto straggler = rt.submit(random_images(1, 70));
  ASSERT_EQ(straggler.wait_for(seconds(10)), std::future_status::ready);
  EXPECT_NO_THROW(straggler.get());
  EXPECT_GE(steady_clock::now() - start, kCap);
  EXPECT_EQ(rt.metrics_snapshot().requests_completed, 2 * kMaxBatch + 1);
}

TEST(ServingRuntimeTest, ShutdownEndsTheLingerAndDrainsEveryRequest) {
  // After the burst's full batch the batcher may linger up to 10 s for the
  // remainder; shutdown() closes the queue, which ends the linger at once,
  // and every accepted request still gets its verdict.
  ServingRuntime rt(tiny_system(2), batcher_options(seconds(10)));
  auto futures = burst_behind_swap_lock(rt);
  const auto start = steady_clock::now();
  rt.shutdown();
  EXPECT_LT(steady_clock::now() - start, seconds(5));
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const MetricsSnapshot s = rt.metrics_snapshot();
  EXPECT_EQ(s.requests_submitted, 2 * kMaxBatch);
  EXPECT_EQ(s.requests_completed, 2 * kMaxBatch);
}

TEST(ServingRuntimeTest, OptionsAreClampedToUsableValues) {
  RuntimeOptions opts;
  opts.threads = 0;
  opts.max_batch = 0;
  opts.queue_capacity = 0;
  ServingRuntime rt(tiny_system(2), opts);
  EXPECT_GE(rt.options().threads, 1U);
  EXPECT_GE(rt.options().max_batch, 1U);
  auto f = rt.submit(random_images(1, 40));
  EXPECT_NO_THROW(f.get());
}

}  // namespace
}  // namespace pgmr::runtime
