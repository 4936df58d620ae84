#include "tensor/serialize.h"

#include <stdexcept>

#include "tensor/crc32.h"

namespace pgmr {
namespace {

constexpr std::uint32_t kMagic = 0x50474D52;  // "PGMR"
constexpr std::uint32_t kLegacyVersion = 1;   // pre-CRC payloads

/// CRC-32 over a tensor's shape descriptor and float payload — what v2
/// archives append after the values so bit rot is caught at load time.
std::uint32_t tensor_crc(const std::vector<std::int64_t>& dims,
                         const std::vector<float>& values) {
  std::uint32_t c = crc32(dims.data(), dims.size() * sizeof(std::int64_t));
  return crc32(values.data(), values.size() * sizeof(float), c);
}

}  // namespace

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
  write_u32(kMagic);
  write_u32(kArchiveVersion);
}

void BinaryWriter::raw(const void* p, std::size_t n) {
  out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!out_) throw std::runtime_error("BinaryWriter: write failed");
}

void BinaryWriter::write_u32(std::uint32_t v) { raw(&v, sizeof(v)); }
void BinaryWriter::write_i64(std::int64_t v) { raw(&v, sizeof(v)); }
void BinaryWriter::write_f32(float v) { raw(&v, sizeof(v)); }
void BinaryWriter::write_f64(double v) { raw(&v, sizeof(v)); }

void BinaryWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) raw(s.data(), s.size());
}

void BinaryWriter::write_floats(const std::vector<float>& v) {
  write_i64(static_cast<std::int64_t>(v.size()));
  if (!v.empty()) raw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_tensor(const Tensor& t) {
  write_u32(static_cast<std::uint32_t>(t.shape().rank()));
  std::vector<std::int64_t> dims(t.shape().rank());
  for (std::size_t i = 0; i < t.shape().rank(); ++i) {
    dims[i] = t.shape()[i];
    write_i64(dims[i]);
  }
  write_floats(t.values());
  write_u32(tensor_crc(dims, t.values()));
}

void BinaryWriter::close() {
  out_.flush();
  if (!out_) throw std::runtime_error("BinaryWriter: flush failed");
  out_.close();
}

BinaryReader::BinaryReader(const std::string& path, Compat compat)
    : in_(path, std::ios::binary) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
  if (read_u32() != kMagic) {
    throw std::runtime_error("BinaryReader: bad magic in " + path);
  }
  version_ = read_u32();
  const bool legacy_ok =
      compat == Compat::allow_legacy && version_ == kLegacyVersion;
  if (version_ != kArchiveVersion && !legacy_ok) {
    throw std::runtime_error("BinaryReader: unsupported version in " + path);
  }
}

void BinaryReader::raw(void* p, std::size_t n) {
  in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (in_.gcount() != static_cast<std::streamsize>(n)) {
    throw std::runtime_error("BinaryReader: truncated archive");
  }
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof(v));
  return v;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t v = 0;
  raw(&v, sizeof(v));
  return v;
}

float BinaryReader::read_f32() {
  float v = 0;
  raw(&v, sizeof(v));
  return v;
}

double BinaryReader::read_f64() {
  double v = 0;
  raw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint32_t n = read_u32();
  std::string s(n, '\0');
  if (n > 0) raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::read_floats() {
  const std::int64_t n = read_i64();
  if (n < 0) throw std::runtime_error("BinaryReader: negative float count");
  std::vector<float> v(static_cast<std::size_t>(n));
  if (n > 0) raw(v.data(), v.size() * sizeof(float));
  return v;
}

void BinaryReader::expect_end() {
  const std::streampos at = in_.tellg();
  in_.seekg(0, std::ios::end);
  const std::streamoff trailing = in_.tellg() - at;
  if (trailing != 0) {
    throw std::runtime_error("BinaryReader: " + std::to_string(trailing) +
                             " trailing bytes");
  }
}

Tensor BinaryReader::read_tensor() {
  const std::uint32_t rank = read_u32();
  if (rank > Shape::kMaxRank) {
    throw std::runtime_error("BinaryReader: tensor rank too large");
  }
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) d = read_i64();
  std::vector<float> values = read_floats();
  if (version_ >= kArchiveVersion) {
    const std::uint32_t stored = read_u32();
    if (stored != tensor_crc(dims, values)) {
      throw std::runtime_error("BinaryReader: tensor CRC mismatch");
    }
  }
  Shape shape;
  switch (rank) {
    case 0: shape = Shape{}; break;
    case 1: shape = Shape{dims[0]}; break;
    case 2: shape = Shape{dims[0], dims[1]}; break;
    case 3: shape = Shape{dims[0], dims[1], dims[2]}; break;
    case 4: shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
    case 5: shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4]}; break;
    default:
      shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]};
      break;
  }
  return Tensor(shape, std::move(values));
}

bool archive_exists(const std::string& path) {
  try {
    BinaryReader reader(path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace pgmr
