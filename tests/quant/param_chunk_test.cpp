// Chunked parameter-CRC properties: a tensor is blessed as independent
// CRC32s over kCrcChunkElems-float windows, so corruption is localized to
// the chunk that holds it, out-of-range and size-drifted reads fail closed
// (a drift is a corruption signal, never a pass), and re-blessing rebuilds
// the chunk snapshot — the contract the runtime's scrubber, which verifies
// one chunk per swap-mutex acquisition, is built on.
#include "quant/quantized_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/random.h"

namespace pgmr::quant {
namespace {

constexpr std::int64_t kChunk = QuantizedNetwork::kCrcChunkElems;

/// Flatten + Dense(2, 20000) + Dense(20000, 2): parameter tensors of
/// 40000 / 20000 / 40000 / 2 floats — three of them span multiple CRC
/// chunks (3, 2, 3 and 1 respectively).
nn::Network multi_chunk_net() {
  Rng rng(7);
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

QuantizedNetwork blessed() {
  return QuantizedNetwork(multi_chunk_net(), 32, nn::Protection::off);
}

TEST(ParamChunkTest, ChunkCountIsCeilOfNumelOverChunkElems) {
  QuantizedNetwork qn = blessed();
  const std::vector<Tensor*> params = qn.mutable_network().params();
  ASSERT_EQ(qn.param_count(), params.size());
  bool saw_multi_chunk = false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::int64_t n = params[i]->numel();
    const auto expected = static_cast<std::size_t>((n + kChunk - 1) / kChunk);
    EXPECT_EQ(qn.param_chunk_count(i), expected) << "param " << i;
    EXPECT_GE(qn.param_chunk_count(i), 1U);
    saw_multi_chunk = saw_multi_chunk || expected > 1;
  }
  EXPECT_TRUE(saw_multi_chunk) << "fixture must exercise multi-chunk tensors";
  EXPECT_EQ(qn.param_chunk_count(qn.param_count()), 0U);  // out of range
}

TEST(ParamChunkTest, BlessingLeavesEveryChunkIntact) {
  QuantizedNetwork qn = blessed();
  for (std::size_t i = 0; i < qn.param_count(); ++i) {
    for (std::size_t c = 0; c < qn.param_chunk_count(i); ++c) {
      EXPECT_TRUE(qn.param_chunk_intact(i, c)) << "param " << i << " chunk "
                                               << c;
    }
  }
  EXPECT_TRUE(qn.params_intact());
}

TEST(ParamChunkTest, CorruptionIsLocalizedToItsChunk) {
  QuantizedNetwork qn = blessed();
  // Find a tensor with >= 3 chunks and flip one element inside chunk 1.
  std::size_t target = qn.param_count();
  for (std::size_t i = 0; i < qn.param_count(); ++i) {
    if (qn.param_chunk_count(i) >= 3) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, qn.param_count());
  Tensor* p = qn.mutable_network().params()[target];
  const std::int64_t victim = kChunk + 11;
  (*p)[victim] = (*p)[victim] == 0.0F ? 1.0F : -(*p)[victim];

  EXPECT_TRUE(qn.param_chunk_intact(target, 0));
  EXPECT_FALSE(qn.param_chunk_intact(target, 1));
  EXPECT_TRUE(qn.param_chunk_intact(target, 2));
  // The whole-network view agrees with the chunked one.
  EXPECT_FALSE(qn.params_intact());
  EXPECT_EQ(qn.first_corrupt_param(), static_cast<int>(target));
  // Other tensors are untouched.
  for (std::size_t i = 0; i < qn.param_count(); ++i) {
    for (std::size_t c = 0; i != target && c < qn.param_chunk_count(i); ++c) {
      EXPECT_TRUE(qn.param_chunk_intact(i, c)) << "param " << i;
    }
  }
}

TEST(ParamChunkTest, RefreshChecksumReblessesTheChunkSnapshot) {
  QuantizedNetwork qn = blessed();
  Tensor* p = qn.mutable_network().params()[0];
  (*p)[kChunk + 3] += 1.0F;
  ASSERT_FALSE(qn.param_chunk_intact(0, 1));

  qn.refresh_checksum();  // the edit becomes the new golden state
  for (std::size_t i = 0; i < qn.param_count(); ++i) {
    for (std::size_t c = 0; c < qn.param_chunk_count(i); ++c) {
      EXPECT_TRUE(qn.param_chunk_intact(i, c)) << "param " << i << " chunk "
                                               << c;
    }
  }
  EXPECT_TRUE(qn.params_intact());
}

TEST(ParamChunkTest, OutOfRangeReadsFailClosed) {
  QuantizedNetwork qn = blessed();
  EXPECT_FALSE(qn.param_chunk_intact(qn.param_count(), 0));
  EXPECT_FALSE(qn.param_chunk_intact(0, qn.param_chunk_count(0)));
}

TEST(ParamChunkTest, LiveSizeDriftReadsAsCorruption) {
  QuantizedNetwork qn = blessed();
  std::size_t target = 0;
  for (std::size_t i = 0; i < qn.param_count(); ++i) {
    if (qn.param_chunk_count(i) >= 3) target = i;
  }
  const std::size_t chunks = qn.param_chunk_count(target);
  ASSERT_GE(chunks, 3U);
  // Shrink the live tensor under the golden snapshot: chunks past the new
  // end fail because they no longer exist, and the first chunk fails
  // because its window changed — a drift never passes.
  *qn.mutable_network().params()[target] = Tensor(Shape{4});
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_FALSE(qn.param_chunk_intact(target, c)) << "chunk " << c;
  }
  EXPECT_EQ(qn.first_corrupt_param(), static_cast<int>(target));
}

}  // namespace
}  // namespace pgmr::quant
