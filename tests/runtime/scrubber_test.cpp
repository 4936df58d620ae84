// Weight scrubber end-to-end: a corrupted member's CRCs are caught off the
// hot path, the member is reloaded from its zoo archive without a runtime
// restart, and a member with no trustworthy archive left is fenced out of
// the quorum permanently. On members with multi-chunk tensors, one sweep
// verifies every 64 KiB CRC chunk under its own swap-mutex acquisition,
// and stays coherent while requests are served and slots are hot-swapped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/dense.h"
#include "nn/pooling.h"
#include "quant/quantized_network.h"
#include "runtime/serving_runtime.h"
#include "tensor/random.h"

namespace pgmr::runtime {
namespace {

using std::chrono::milliseconds;

/// Flatten + Dense(2,2) identity net: logits == input.
nn::Network identity_net() {
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto fc = std::make_unique<nn::Dense>(2, 2);
  Tensor* w = fc->params()[0];
  (*w)[0] = 1.0F;
  (*w)[3] = 1.0F;
  layers.push_back(std::move(fc));
  return nn::Network("identity", std::move(layers));
}

class ScrubberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = (std::filesystem::temp_directory_path() /
                ("pgmr_scrubber_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                 ".net"))
                   .string();
    identity_net().save(archive_);
  }
  void TearDown() override { std::remove(archive_.c_str()); }

  /// `members` identity members, each loaded from (and wired to reload
  /// from) the shared archive.
  polygraph::PolygraphSystem archive_system(int members) {
    mr::Ensemble e;
    for (int m = 0; m < members; ++m) {
      mr::Member member(std::make_unique<prep::Identity>(),
                        nn::Network::load(archive_));
      member.set_archive_source(archive_);
      e.add(std::move(member));
    }
    polygraph::PolygraphSystem sys(std::move(e));
    sys.set_thresholds({0.5F, members});
    return sys;
  }

  static RuntimeOptions scrub_options(milliseconds interval = milliseconds(0)) {
    RuntimeOptions o;
    o.threads = 2;
    o.max_batch = 4;
    o.max_delay = std::chrono::microseconds(200);
    o.protection = nn::Protection::full;
    o.scrub_interval = interval;
    return o;
  }

  static Tensor confident_input() {
    Tensor x(Shape{1, 1, 1, 2});
    x[0] = 5.0F;  // logits (5, 0): every healthy member votes class 0
    return x;
  }

  static polygraph::Verdict serve_one(ServingRuntime& rt) {
    return rt.submit(confident_input()).get();
  }

  /// Sign-flips member m's W[0][0] (1.0 -> -1.0): breaks both its ABFT
  /// column sum and its parameter CRC. Holds the swap mutex so the
  /// mutation never races the batcher or a background sweep.
  static void corrupt_member(ServingRuntime& rt, std::size_t m) {
    rt.with_swap_lock([&rt, m] {
      Tensor* w = rt.system().ensemble().member(m).net().mutable_network()
                      .params()[0];
      (*w)[0] = -(*w)[0];
    });
  }

  std::string archive_;
};

TEST_F(ScrubberTest, CleanSweepFindsNothing) {
  ServingRuntime rt(archive_system(3), scrub_options());
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.members_checked, 3U);
  EXPECT_EQ(report.mismatches, 0U);
  EXPECT_EQ(report.reloads, 0U);
  EXPECT_EQ(report.fenced, 0U);
  EXPECT_EQ(rt.metrics_snapshot().scrub_cycles, 1U);
  EXPECT_FALSE(rt.scrubber().running());  // interval 0: on-demand only
}

TEST_F(ScrubberTest, CorruptedMemberIsHealedWithoutRestart) {
  ServingRuntime rt(archive_system(3), scrub_options());

  // Golden behaviour at full quorum.
  const polygraph::Verdict golden = serve_one(rt);
  EXPECT_EQ(golden.label, 0);
  EXPECT_TRUE(golden.reliable);
  EXPECT_FALSE(golden.degraded);

  // Corrupt member 1's weights in place. The very next batch survives it:
  // full-network ABFT drops the member's vote, quorum degrades to 2-of-2.
  corrupt_member(rt, 1);
  const polygraph::Verdict under_fault = serve_one(rt);
  EXPECT_EQ(under_fault.label, 0);
  EXPECT_TRUE(under_fault.degraded);

  // One scrub sweep spots the CRC mismatch and reloads from the archive.
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 1U);
  EXPECT_EQ(report.fenced, 0U);

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.crc_mismatches[1], 1U);
  EXPECT_EQ(snap.weight_reloads[1], 1U);
  EXPECT_EQ(snap.crc_mismatches[0], 0U);

  // The healed member votes again: back to the golden verdict, no restart.
  const polygraph::Verdict healed = serve_one(rt);
  EXPECT_EQ(healed.label, 0);
  EXPECT_TRUE(healed.reliable);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.activated, 3);
}

TEST_F(ScrubberTest, MemberWithoutTrustworthyArchiveIsFenced) {
  ServingRuntime rt(archive_system(3), scrub_options());
  EXPECT_FALSE(serve_one(rt).degraded);

  // Corrupt the member AND take away its reload source.
  corrupt_member(rt, 0);
  rt.with_swap_lock([&rt, this] {
    rt.system().ensemble().member(0).set_archive_source(archive_ + ".gone");
  });
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 0U);
  EXPECT_EQ(report.fenced, 1U);
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);

  // Fenced is terminal: the member never runs again, verdicts stay
  // degraded on the surviving quorum, and later sweeps skip it.
  for (int i = 0; i < 3; ++i) {
    const polygraph::Verdict v = serve_one(rt);
    EXPECT_EQ(v.label, 0);
    EXPECT_TRUE(v.degraded);
    EXPECT_EQ(v.activated, 2);
  }
  EXPECT_EQ(rt.health().state(0), MemberState::fenced);
  EXPECT_EQ(rt.scrub_now().members_checked, 2U);
  EXPECT_EQ(rt.metrics_snapshot().member_faults[0], 0U);
}

TEST_F(ScrubberTest, BackgroundScrubberHealsWithoutManualSweep) {
  ServingRuntime rt(archive_system(3), scrub_options(milliseconds(5)));
  EXPECT_TRUE(rt.scrubber().running());
  EXPECT_FALSE(serve_one(rt).degraded);

  corrupt_member(rt, 2);
  // No scrub_now(): the background thread must spot and heal the member.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.metrics_snapshot().weight_reloads[2] == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background scrubber never healed the member";
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(rt.metrics_snapshot().crc_mismatches[2], 1U);
  const polygraph::Verdict healed = serve_one(rt);
  EXPECT_EQ(healed.label, 0);
  EXPECT_FALSE(healed.degraded);

  rt.shutdown();
  EXPECT_FALSE(rt.scrubber().running());
}

/// Flatten + Dense(2, 20000) + Dense(20000, 2): four parameter tensors of
/// 40000 / 20000 / 40000 / 2 floats = 3 + 2 + 3 + 1 = 9 CRC chunks.
constexpr std::int64_t kChunk = quant::QuantizedNetwork::kCrcChunkElems;
constexpr std::size_t kParams = 4;
constexpr std::size_t kTotalChunks = 9;

nn::Network multi_chunk_net() {
  Rng rng(21);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto up = std::make_unique<nn::Dense>(2, 20000);
  up->init(rng);
  layers.push_back(std::move(up));
  auto down = std::make_unique<nn::Dense>(20000, 2);
  down->init(rng);
  layers.push_back(std::move(down));
  return nn::Network("multichunk", std::move(layers));
}

/// Members built from (and reloading from) the multi-chunk archive; sweeps
/// are driven by scrub_now() unless a test sets scrub_interval.
class ScrubChunkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    archive_ = (std::filesystem::temp_directory_path() /
                ("pgmr_scrub_chunk_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name() +
                 ".net"))
                   .string();
    multi_chunk_net().save(archive_);
  }
  void TearDown() override { std::remove(archive_.c_str()); }

  polygraph::PolygraphSystem archive_system(int members) {
    mr::Ensemble e;
    for (int m = 0; m < members; ++m) {
      mr::Member member(std::make_unique<prep::Identity>(),
                        nn::Network::load(archive_));
      member.set_archive_source(archive_);
      e.add(std::move(member));
    }
    polygraph::PolygraphSystem sys(std::move(e));
    sys.set_thresholds({0.5F, members});
    return sys;
  }

  static RuntimeOptions chunk_options() {
    RuntimeOptions o;
    o.threads = 1;
    o.protection = nn::Protection::full;
    return o;
  }

  /// Sign-flips element `idx` of member m's parameter tensor `param`,
  /// breaking exactly the CRC chunk that holds it. Swap-locked so it never
  /// races a sweep.
  static void corrupt_param(ServingRuntime& rt, std::size_t m,
                            std::size_t param, std::int64_t idx) {
    rt.with_swap_lock([&rt, m, param, idx] {
      Tensor* p = rt.system().ensemble().member(m).net().mutable_network()
                      .params()[param];
      (*p)[idx] = (*p)[idx] == 0.0F ? 1.0F : -(*p)[idx];
    });
  }

  static std::uint64_t hold_samples(const ServingRuntime& rt) {
    std::uint64_t samples = 0;
    for (std::uint64_t b : rt.metrics_snapshot().scrub_hold_buckets) {
      samples += b;
    }
    return samples;
  }

  std::string archive_;
};

/// The same fixture, for what follows from the swap mutex being released
/// between chunks: heals and fences found mid-pass, the per-acquisition
/// hold histogram, the background loop.
class ScrubIncrementalTest : public ScrubChunkTest {};

TEST_F(ScrubChunkTest, OneSweepVerifiesEveryChunkUnderItsOwnHold) {
  ServingRuntime rt(archive_system(1), chunk_options());
  // The last chunk of the last tensor (Dense(20000, 2)'s bias) is the
  // final one a sweep reaches.
  corrupt_param(rt, 0, kParams - 1, 1);

  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.members_checked, 1U);
  EXPECT_EQ(report.chunks_checked, kTotalChunks);
  EXPECT_EQ(report.tensors_checked, kParams - 1);  // the last one was bad
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 1U);
  EXPECT_EQ(hold_samples(rt), kTotalChunks);  // one hold per chunk

  const ScrubReport clean = rt.scrub_now();
  EXPECT_EQ(clean.chunks_checked, kTotalChunks);
  EXPECT_EQ(clean.tensors_checked, kParams);
  EXPECT_EQ(clean.mismatches, 0U);
  EXPECT_EQ(hold_samples(rt), 2 * kTotalChunks);
}

TEST_F(ScrubChunkTest, LateChunkCorruptionIsCaughtWhenItsWindowComesUp) {
  ServingRuntime rt(archive_system(1), chunk_options());
  // Corrupt chunk 2 of tensor 0 (past two full windows): the sweep
  // verifies the clean windows before it, then heals from the archive
  // under the acquisition that found the mismatch and moves on.
  corrupt_param(rt, 0, 0, 2 * kChunk + 7);

  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.chunks_checked, 3U);
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.reloads, 1U);
  EXPECT_EQ(report.fenced, 0U);
  EXPECT_EQ(rt.metrics_snapshot().crc_mismatches[0], 1U);
  EXPECT_EQ(rt.metrics_snapshot().weight_reloads[0], 1U);
  EXPECT_EQ(rt.scrub_now().mismatches, 0U);
}

TEST_F(ScrubIncrementalTest, ZeroBudgetChecksEverythingEachSweep) {
  // There is no per-sweep budget: every sweep is a full pass.
  ServingRuntime rt(archive_system(3), chunk_options());
  for (int sweep = 0; sweep < 2; ++sweep) {
    const ScrubReport report = rt.scrub_now();
    EXPECT_EQ(report.members_checked, 3U);
    EXPECT_EQ(report.tensors_checked, 3 * kParams);
    EXPECT_EQ(report.chunks_checked, 3 * kTotalChunks);
  }
}

TEST_F(ScrubIncrementalTest, MidWindowCorruptionHealsWithinOneLogicalPass) {
  ServingRuntime rt(archive_system(2), chunk_options());
  corrupt_param(rt, 1, 2, kChunk + 5);  // tensor 2, chunk 1

  const ScrubReport first = rt.scrub_now();
  EXPECT_EQ(first.mismatches, 1U);
  EXPECT_EQ(first.reloads, 1U);
  EXPECT_EQ(first.fenced, 0U);
  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(snap.crc_mismatches[0], 0U);
  EXPECT_EQ(snap.crc_mismatches[1], 1U);
  EXPECT_EQ(snap.weight_reloads[1], 1U);
  // Healed: the next pass over every chunk is clean.
  const ScrubReport second = rt.scrub_now();
  EXPECT_EQ(second.mismatches, 0U);
  EXPECT_EQ(second.chunks_checked, 2 * kTotalChunks);
}

TEST_F(ScrubIncrementalTest, IncrementalSweepStillFencesWithoutArchive) {
  ServingRuntime rt(archive_system(2), chunk_options());
  corrupt_param(rt, 1, 2, 2 * kChunk + 1);  // last chunk of tensor 2
  rt.with_swap_lock([&rt, this] {
    rt.system().ensemble().member(1).set_archive_source(archive_ + ".gone");
  });

  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.mismatches, 1U);
  EXPECT_EQ(report.fenced, 1U);
  EXPECT_EQ(rt.health().state(1), MemberState::fenced);
  // Fenced members drop out of later sweeps; the healthy member remains.
  const ScrubReport after = rt.scrub_now();
  EXPECT_EQ(after.members_checked, 1U);
  EXPECT_EQ(after.chunks_checked, kTotalChunks);
}

TEST_F(ScrubIncrementalTest, HoldHistogramIsRecordedAndBounded) {
  // Each acquisition CRCs at most one 64 KiB chunk, so the p99 hold stays
  // far inside the 6400 us histogram bucket even under a sanitizer.
  ServingRuntime rt(archive_system(3), chunk_options());
  for (int i = 0; i < 10; ++i) rt.scrub_now();

  const MetricsSnapshot snap = rt.metrics_snapshot();
  EXPECT_EQ(hold_samples(rt), 10 * 3 * kTotalChunks);
  EXPECT_LE(snap.scrub_hold_quantile_us(0.99), 6400U);
  EXPECT_LE(snap.scrub_hold_quantile_us(0.5),
            snap.scrub_hold_quantile_us(0.99));
}

TEST_F(ScrubIncrementalTest, BackgroundIncrementalScrubberHeals) {
  RuntimeOptions o = chunk_options();
  o.scrub_interval = milliseconds(2);
  ServingRuntime rt(archive_system(2), o);
  EXPECT_TRUE(rt.scrubber().running());

  corrupt_param(rt, 0, 2, 3 * kChunk / 2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.metrics_snapshot().weight_reloads[0] == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background scrubber never healed the member";
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(rt.metrics_snapshot().crc_mismatches[0], 1U);
  rt.shutdown();
  EXPECT_FALSE(rt.scrubber().running());
}

TEST_F(ScrubIncrementalTest, SweepsStayCoherentUnderServingAndHotSwap) {
  // While a client thread keeps submitting and another thread keeps
  // sweeping: fenced slot 0 is rebuilt by replace_now() as a member with a
  // different chunk layout (the two-tensor identity net), then live slot 1
  // is swapped between the two layouts. A swap can land between two
  // chunks of a sweep; the next acquisition must re-read the slot.
  const std::string small = archive_ + ".identity";
  identity_net().save(small);
  RuntimeOptions o = chunk_options();
  o.threads = 2;
  o.replacement.factory = [&small](std::size_t, int, std::stop_token) {
    return std::optional<mr::Member>(mr::Member(
        std::make_unique<prep::Identity>(), nn::Network::load(small)));
  };
  ServingRuntime rt(archive_system(3), o);
  corrupt_param(rt, 0, 0, 0);
  rt.with_swap_lock([&rt, this] {
    rt.system().ensemble().member(0).set_archive_source(archive_ + ".gone");
  });
  ASSERT_EQ(rt.scrub_now().fenced, 1U);

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<std::size_t> concurrent_mismatches{0};
  std::thread client([&] {
    Tensor x(Shape{1, 1, 1, 2});
    x[0] = 5.0F;
    while (!stop.load()) {
      rt.submit(x).get();
      served.fetch_add(1);
    }
  });
  std::thread sweeper([&] {
    while (!stop.load()) {
      concurrent_mismatches.fetch_add(rt.scrub_now().mismatches);
    }
  });
  while (served.load() < 10) std::this_thread::sleep_for(milliseconds(1));
  EXPECT_EQ(rt.replace_now().replaced, 1U);
  for (int i = 0; i < 20; ++i) {
    mr::Member fresh(std::make_unique<prep::Identity>(),
                     nn::Network::load(i % 2 == 0 ? small : archive_));
    fresh.set_protection(nn::Protection::full);
    rt.with_swap_lock([&rt, &fresh] {
      rt.system().ensemble().replace(1, std::move(fresh));
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int served_at_swap = served.load();
  while (served.load() < served_at_swap + 10) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  stop.store(true);
  client.join();
  sweeper.join();

  // Every member the sweeps saw was intact: the swap never read as a
  // corruption, and the replacement is verified at its own layout.
  EXPECT_EQ(concurrent_mismatches.load(), 0U);
  EXPECT_NE(rt.health().state(0), MemberState::fenced);
  const ScrubReport report = rt.scrub_now();
  EXPECT_EQ(report.members_checked, 3U);
  EXPECT_EQ(report.mismatches, 0U);
  EXPECT_EQ(report.chunks_checked, 2 * kTotalChunks + 2);
  std::remove(small.c_str());
}

}  // namespace
}  // namespace pgmr::runtime
