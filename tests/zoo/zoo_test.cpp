// Zoo registry and cache tests. Tests that need a trained model share the
// repository-level cache (PGMR_TEST_CACHE_DIR, set by CMake) so they reuse
// the prewarmed weights; training is deterministic either way.
#include "zoo/zoo.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "data/synthetic.h"

namespace pgmr::zoo {
namespace {

class ZooCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef PGMR_TEST_CACHE_DIR
    ::setenv("PGMR_CACHE_DIR", PGMR_TEST_CACHE_DIR, /*overwrite=*/0);
#endif
  }
};

TEST(ZooRegistryTest, AllSixPaperBenchmarksPresent) {
  const auto& all = all_benchmarks();
  ASSERT_EQ(all.size(), 6U);
  EXPECT_EQ(all[0].id, "lenet5");
  EXPECT_EQ(all[0].dataset_id, "smnist");
  EXPECT_EQ(all[1].id, "convnet");
  EXPECT_EQ(all[2].id, "resnet20");
  EXPECT_EQ(all[3].id, "densenet40");
  EXPECT_EQ(all[3].dataset_id, "scifar");
  EXPECT_EQ(all[4].id, "alexnet");
  EXPECT_EQ(all[5].id, "resnet34");
  EXPECT_EQ(all[5].dataset_id, "simagenet");
}

TEST(ZooRegistryTest, FindBenchmarkByIdOrThrow) {
  EXPECT_EQ(find_benchmark("convnet").dataset_id, "scifar");
  EXPECT_THROW(find_benchmark("vgg16"), std::invalid_argument);
}

TEST(ZooRegistryTest, SplitsAreDeterministicAndSized) {
  const Benchmark& bm = find_benchmark("convnet");
  const data::DatasetSplits a = benchmark_splits(bm);
  const data::DatasetSplits b = benchmark_splits(bm);
  EXPECT_EQ(a.val.size(), 1000);
  EXPECT_EQ(a.test.size(), 1000);
  EXPECT_EQ(a.train.size(), 0);  // only the trainer renders it
  EXPECT_TRUE(allclose(a.test.images, b.test.images, 0.0F));
  const data::Dataset train = benchmark_train_split(bm);
  EXPECT_EQ(train.size(), 3000);
  EXPECT_EQ(train.num_classes, 10);
}

TEST(ZooRegistryTest, SplitsMatchTheFullRendering) {
  // The train draws run into a scratch image: val, test and the trainer's
  // split are bit-identical to cutting the whole rendered corpus.
  const Benchmark& bm = find_benchmark("lenet5");
  const std::vector<data::Dataset> full = data::generate_synthetic_parts(
      data::smnist_spec(5000), {3000, 1000, 1000});
  const data::DatasetSplits s = benchmark_splits(bm);
  const data::Dataset train = benchmark_train_split(bm);
  EXPECT_TRUE(allclose(train.images, full[0].images, 0.0F));
  EXPECT_EQ(train.labels, full[0].labels);
  EXPECT_TRUE(allclose(s.val.images, full[1].images, 0.0F));
  EXPECT_EQ(s.val.labels, full[1].labels);
  EXPECT_TRUE(allclose(s.test.images, full[2].images, 0.0F));
  EXPECT_EQ(s.test.labels, full[2].labels);
}

TEST(ZooRegistryTest, TrainValTestAreDisjointByConstruction) {
  // Slices of a single generated corpus: verify boundaries by comparing
  // the first test sample against every train sample (all differ).
  const Benchmark& bm = find_benchmark("lenet5");
  const data::DatasetSplits s = benchmark_splits(bm);
  const data::Dataset train = benchmark_train_split(bm);
  const Tensor probe = s.test.sample(0);
  int matches = 0;
  for (std::int64_t i = 0; i < train.size(); ++i) {
    if (allclose(probe, train.sample(i), 1e-7F)) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(ZooRegistryTest, CandidatePoolsParseable) {
  for (const Benchmark& bm : all_benchmarks()) {
    const auto pool = candidate_pool(bm);
    EXPECT_GE(pool.size(), 5U) << bm.id;
    for (const std::string& spec : pool) {
      EXPECT_NO_THROW(prep::make_preprocessor(spec)) << spec;
    }
  }
}

TEST_F(ZooCacheTest, TrainedNetworkIsCachedAndDeterministic) {
  const Benchmark& bm = find_benchmark("lenet5");
  nn::Network first = trained_network(bm, "ORG");

  // Second call must hit the cache and agree bit-for-bit.
  const auto t0 = std::chrono::steady_clock::now();
  nn::Network second = trained_network(bm, "ORG");
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 1.0);  // load, not a retrain

  const data::DatasetSplits splits = benchmark_splits(bm);
  const data::Dataset probe = splits.test.slice(0, 32);
  EXPECT_TRUE(allclose(probabilities_on(first, probe),
                       probabilities_on(second, probe), 0.0F));
}

TEST_F(ZooCacheTest, VariantsProduceDistinctNetworks) {
  const Benchmark& bm = find_benchmark("lenet5");
  nn::Network v0 = trained_network(bm, "ORG", 0);
  nn::Network v1 = trained_network(bm, "ORG", 1);
  const data::DatasetSplits splits = benchmark_splits(bm);
  const data::Dataset probe = splits.test.slice(0, 64);
  EXPECT_FALSE(allclose(probabilities_on(v0, probe),
                        probabilities_on(v1, probe), 1e-4F));
}

TEST_F(ZooCacheTest, TrainedBaselineBeatsChanceComfortably) {
  const Benchmark& bm = find_benchmark("lenet5");
  nn::Network net = trained_network(bm, "ORG");
  const data::DatasetSplits splits = benchmark_splits(bm);
  EXPECT_GT(accuracy(net, splits.test), 0.9);
}

TEST_F(ZooCacheTest, MakeEnsembleWiresPreprocessors) {
  const Benchmark& bm = find_benchmark("lenet5");
  mr::Ensemble e = make_ensemble(bm, {"ORG", "FlipX"});
  ASSERT_EQ(e.size(), 2U);
  EXPECT_EQ(e.member(0).prep_name(), "ORG");
  EXPECT_EQ(e.member(1).prep_name(), "FlipX");
  EXPECT_EQ(e.member(0).bits(), 32);
}

TEST_F(ZooCacheTest, MakeRandomInitEnsembleUsesVariants) {
  const Benchmark& bm = find_benchmark("lenet5");
  mr::Ensemble e = make_random_init_ensemble(bm, 2);
  ASSERT_EQ(e.size(), 2U);
  EXPECT_EQ(e.member(0).prep_name(), "ORG");
  EXPECT_EQ(e.member(1).prep_name(), "ORG");
  // Different variants -> different behaviour on some inputs.
  const data::DatasetSplits splits = benchmark_splits(bm);
  const data::Dataset probe = splits.test.slice(0, 64);
  const auto probs = e.member_probabilities(probe.images);
  EXPECT_FALSE(allclose(probs[0], probs[1], 1e-4F));
}

}  // namespace
}  // namespace pgmr::zoo
