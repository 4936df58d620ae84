#include "tensor/crc32.h"

#include <array>

namespace pgmr {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320U;

using Table = std::array<std::uint32_t, 256>;

/// kTables[0] is the classic byte table. kTables[t][b] is the CRC state
/// after byte b is followed by t zero bytes, so the eight bytes of a word
/// are folded with one lookup each into independent tables (slicing-by-8).
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t t = 1; t < 8; ++t) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFU];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// Bytes p[0..3] as a little-endian word, whatever the host's byte order.
std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* p, std::size_t n, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; n >= 8; n -= 8, bytes += 8) {
    const std::uint32_t lo = le32(bytes) ^ c;
    const std::uint32_t hi = le32(bytes + 4);
    c = kTables[7][lo & 0xFFU] ^ kTables[6][(lo >> 8) & 0xFFU] ^
        kTables[5][(lo >> 16) & 0xFFU] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFU] ^ kTables[2][(hi >> 8) & 0xFFU] ^
        kTables[1][(hi >> 16) & 0xFFU] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace pgmr
