// crc32 (slicing-by-8) against the byte-at-a-time table loop it replaced.
#include "tensor/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/random.h"

namespace pgmr {
namespace {

/// The reference: one table lookup per byte.
std::uint32_t crc32_bytewise(const void* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? (0xEDB88320U ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  const auto* bytes = static_cast<const unsigned char*>(p);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32Test, KnownCheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(s.data(), s.size()), 0xCBF43926U);
  EXPECT_EQ(crc32(s.data(), 0), 0U);
}

TEST(Crc32Test, MatchesBytewiseOverLengthsOffsetsAndSeeds) {
  // Lengths 0..4097 cover every tail length around the 8-byte words; the
  // offsets start the buffer at every misalignment.
  Rng rng(3);
  std::vector<unsigned char> buf(4097 + 8);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.randint(0, 255));
  }
  for (std::size_t len = 0; len <= 4097; ++len) {
    const std::size_t offset = len % 8;
    const auto seed = static_cast<std::uint32_t>(rng.engine()());
    const unsigned char* p = buf.data() + offset;
    ASSERT_EQ(crc32(p, len), crc32_bytewise(p, len)) << "len " << len;
    ASSERT_EQ(crc32(p, len, seed), crc32_bytewise(p, len, seed))
        << "len " << len << " seed " << seed;
  }
}

TEST(Crc32Test, ChainedChunksEqualOneStream) {
  Rng rng(5);
  std::vector<unsigned char> buf(1000);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.randint(0, 255));
  }
  for (std::size_t cut = 0; cut <= buf.size(); cut += 37) {
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head),
              crc32(buf.data(), buf.size()))
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace pgmr
