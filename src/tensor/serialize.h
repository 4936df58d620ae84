// Binary serialization for trained models and cached datasets.
//
// A tiny length-prefixed binary format: PODs are written little-endian
// as-is (we only target x86-64 here), strings and tensors carry explicit
// sizes, and every archive starts with a magic + version header so stale
// caches are rejected instead of misread.
//
// Format v2 guards every tensor payload with a trailing CRC-32 over the
// shape descriptor and the float data, so a flipped bit anywhere in a
// stored parameter surfaces as a load-time error instead of a silent
// mispredicting network. v1 archives (no CRC) are rejected by default —
// the zoo's self-heal path retrains them — but can be read explicitly via
// Compat::allow_legacy for in-place migration (tools/migrate_cache).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace pgmr {

/// Current archive format version (v2 = CRC-guarded tensor payloads).
inline constexpr std::uint32_t kArchiveVersion = 2;

/// Streaming binary writer. Throws std::runtime_error on I/O failure.
class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the archive header.
  explicit BinaryWriter(const std::string& path);

  void write_u32(std::uint32_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_floats(const std::vector<float>& v);
  void write_tensor(const Tensor& t);

  /// Flushes and closes; throws if the stream is in a failed state.
  void close();

 private:
  void raw(const void* p, std::size_t n);
  std::ofstream out_;
};

/// Streaming binary reader mirroring BinaryWriter. Throws std::runtime_error
/// on truncated input, header mismatch, or a tensor CRC mismatch.
class BinaryReader {
 public:
  /// Opt-in acceptance of pre-CRC (v1) archives, for migration tooling
  /// only; normal consumers reject them so stale caches self-heal.
  enum class Compat { strict, allow_legacy };

  /// Opens `path` and validates the archive header.
  explicit BinaryReader(const std::string& path,
                        Compat compat = Compat::strict);

  /// Format version of the open archive (kArchiveVersion unless legacy).
  std::uint32_t version() const { return version_; }

  std::uint32_t read_u32();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_floats();

  /// Reads a tensor and (v2+) verifies its payload CRC-32, throwing
  /// std::runtime_error on mismatch.
  Tensor read_tensor();

  /// Throws std::runtime_error unless every byte has been read — for
  /// fixed-layout files, where trailing bytes mean a layout mismatch.
  void expect_end();

 private:
  void raw(void* p, std::size_t n);
  std::ifstream in_;
  std::uint32_t version_ = kArchiveVersion;
};

/// True when a readable archive with a valid header exists at `path`.
bool archive_exists(const std::string& path);

}  // namespace pgmr
