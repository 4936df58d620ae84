#include "proc/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <type_traits>

#include "tensor/crc32.h"

namespace pgmr::proc {

namespace {

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Reads exactly `n` bytes; false on orderly EOF before the first byte
/// when `eof_ok`, WireError on mid-read EOF or descriptor error.
bool read_exact(int fd, void* buf, std::size_t n, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireError("wire: truncated frame (peer closed mid-frame)");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire: read failed: ") +
                      std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// Stats fields on the wire: a scalar is a u64, a per-member vector is a u32
// count then its u64s, a histogram is its fixed bucket count of u64s.
void put(PayloadWriter& w, std::uint64_t v) { w.u64(v); }

void put(PayloadWriter& w, const std::vector<std::uint64_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint64_t x : v) w.u64(x);
}

void put(PayloadWriter& w, const runtime::Histogram& h) {
  for (std::uint64_t b : h) w.u64(b);
}

void get(PayloadReader& r, std::uint64_t& v) { v = r.u64(); }

void get(PayloadReader& r, std::vector<std::uint64_t>& v) {
  const std::uint32_t n = r.u32();
  if (n > 4096) throw WireError("wire: stats vector too large");
  v.resize(n);
  for (std::uint64_t& x : v) x = r.u64();
}

void get(PayloadReader& r, runtime::Histogram& h) {
  for (std::uint64_t& b : h) b = r.u64();
}

/// Scalar fields in the metric table. The stats payload leads with it, so a
/// worker built with a different table is refused instead of misread.
constexpr std::uint32_t kStatsScalars = [] {
  std::uint32_t n = 0;
  runtime::for_each_metric([&n](const char*, auto field, runtime::Merge) {
    if constexpr (std::is_same_v<decltype(field),
                                 std::uint64_t runtime::MetricsSnapshot::*>) {
      ++n;
    }
  });
  return n;
}();

}  // namespace

// ---- payload writer/reader ----------------------------------------------

void PayloadWriter::u32(std::uint32_t v) { put_le32(bytes_, v); }

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadWriter::tensor(const Tensor& t) {
  const Shape& shape = t.shape();
  u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t i = 0; i < shape.rank(); ++i) i64(shape[i]);
  const auto n = static_cast<std::size_t>(t.numel());
  const std::size_t off = bytes_.size();
  bytes_.resize(off + n * sizeof(float));
  std::memcpy(bytes_.data() + off, t.data(), n * sizeof(float));
}

void PayloadReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw WireError("wire: payload exhausted mid-field");
  }
}

void PayloadReader::expect_end() const {
  if (pos_ != bytes_.size()) {
    throw WireError("wire: " + std::to_string(bytes_.size() - pos_) +
                    " trailing payload bytes");
  }
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  const std::uint32_t v = get_le32(bytes_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | hi << 32;
}

float PayloadReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string PayloadReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

Tensor PayloadReader::tensor() {
  const std::uint8_t rank = u8();
  if (rank > Shape::kMaxRank) throw WireError("wire: tensor rank too large");
  std::int64_t dims[Shape::kMaxRank] = {};
  std::int64_t numel = 1;
  for (std::uint8_t i = 0; i < rank; ++i) {
    dims[i] = i64();
    if (dims[i] <= 0 || numel > static_cast<std::int64_t>(kMaxFrameBytes) ||
        dims[i] > static_cast<std::int64_t>(kMaxFrameBytes)) {
      throw WireError("wire: tensor dimension out of range");
    }
    numel *= dims[i];
  }
  const auto n = static_cast<std::size_t>(numel);
  if (n * sizeof(float) > kMaxFrameBytes) {
    throw WireError("wire: tensor payload too large");
  }
  need(n * sizeof(float));
  Shape shape;
  switch (rank) {  // Shape only builds from initializer lists
    case 0: break;
    case 1: shape = Shape{dims[0]}; break;
    case 2: shape = Shape{dims[0], dims[1]}; break;
    case 3: shape = Shape{dims[0], dims[1], dims[2]}; break;
    case 4: shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
    case 5: shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4]}; break;
    default:
      shape = Shape{dims[0], dims[1], dims[2], dims[3], dims[4], dims[5]};
      break;
  }
  std::vector<float> data(n);
  std::memcpy(data.data(), bytes_.data() + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return Tensor(shape, std::move(data));
}

// ---- message codecs ------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(FrameType::hello));
  w.u64(m.pid);
  w.u32(m.members);
  return w.take();
}

HelloMsg decode_hello(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(FrameType::hello)) {
    throw WireError("wire: not a hello frame");
  }
  HelloMsg m;
  m.pid = r.u64();
  m.members = r.u32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_submit(const SubmitMsg& m) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(FrameType::submit));
  w.u64(m.id);
  w.i64(m.deadline_us);
  w.tensor(m.image);
  return w.take();
}

SubmitMsg decode_submit(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(FrameType::submit)) {
    throw WireError("wire: not a submit frame");
  }
  SubmitMsg m;
  m.id = r.u64();
  m.deadline_us = r.i64();
  m.image = r.tensor();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_verdict(const VerdictMsg& m) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(FrameType::verdict));
  w.u64(m.id);
  w.u8(static_cast<std::uint8_t>(m.status));
  if (m.status == VerdictStatus::ok) {
    w.i64(m.verdict.label);
    w.u8(m.verdict.reliable ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(m.verdict.votes));
    w.u32(static_cast<std::uint32_t>(m.verdict.activated));
    w.u8(m.verdict.degraded ? 1 : 0);
  } else {
    w.str(m.error);
  }
  return w.take();
}

VerdictMsg decode_verdict(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(FrameType::verdict)) {
    throw WireError("wire: not a verdict frame");
  }
  VerdictMsg m;
  m.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(VerdictStatus::error)) {
    throw WireError("wire: unknown verdict status");
  }
  m.status = static_cast<VerdictStatus>(status);
  if (m.status == VerdictStatus::ok) {
    m.verdict.label = r.i64();
    m.verdict.reliable = r.u8() != 0;
    m.verdict.votes = static_cast<int>(r.u32());
    m.verdict.activated = static_cast<int>(r.u32());
    m.verdict.degraded = r.u8() != 0;
  } else {
    m.error = r.str();
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> encode_stats(const runtime::MetricsSnapshot& s) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(FrameType::stats));
  w.u32(kStatsScalars);
  runtime::for_each_metric([&](const char*, auto field, runtime::Merge) {
    put(w, s.*field);
  });
  return w.take();
}

runtime::MetricsSnapshot decode_stats(
    const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(FrameType::stats)) {
    throw WireError("wire: not a stats frame");
  }
  if (r.u32() != kStatsScalars) {
    throw WireError("wire: stats frame from a different metric table");
  }
  runtime::MetricsSnapshot s;
  runtime::for_each_metric([&](const char*, auto field, runtime::Merge) {
    get(r, s.*field);
  });
  r.expect_end();
  return s;
}

std::vector<std::uint8_t> encode_control(FrameType type) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  return w.take();
}

FrameType frame_type(const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) throw WireError("wire: empty payload");
  const std::uint8_t t = payload[0];
  if (t < static_cast<std::uint8_t>(FrameType::hello) ||
      t > static_cast<std::uint8_t>(FrameType::bye)) {
    throw WireError("wire: unknown frame type " + std::to_string(t));
  }
  // Control frames have no decoder of their own, so their length is
  // checked here: the supervisor and worker act on the type byte alone.
  if (t >= static_cast<std::uint8_t>(FrameType::ping) && payload.size() != 1) {
    throw WireError("wire: control frame " + std::to_string(t) +
                    " with trailing bytes");
  }
  return static_cast<FrameType>(t);
}

// ---- frame I/O -----------------------------------------------------------

void write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("wire: refusing to send oversized frame");
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(12 + payload.size());
  put_le32(buf, kFrameMagic);
  put_le32(buf, static_cast<std::uint32_t>(payload.size()));
  put_le32(buf, crc32(payload.data(), payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  std::size_t sent = 0;
  while (sent < buf.size()) {
    // MSG_NOSIGNAL: a peer that died mid-conversation must surface as
    // EPIPE (-> WireError -> restart), never as a SIGPIPE that kills the
    // whole fleet parent. All frame transport runs over socketpairs.
    const ssize_t r = ::send(fd, buf.data() + sent, buf.size() - sent,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("wire: write failed: ") +
                      std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

ReadStatus read_frame(int fd, std::vector<std::uint8_t>& payload,
                      std::chrono::milliseconds timeout) {
  if (timeout.count() >= 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    int r;
    do {
      r = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      throw WireError(std::string("wire: poll failed: ") +
                      std::strerror(errno));
    }
    if (r == 0) return ReadStatus::timeout;
    // POLLHUP with pending data still reads; pure HUP hits EOF below.
  }
  std::uint8_t header[12];
  if (!read_exact(fd, header, sizeof header, /*eof_ok=*/true)) {
    return ReadStatus::eof;
  }
  if (get_le32(header) != kFrameMagic) {
    throw WireError("wire: bad frame magic");
  }
  const std::uint32_t length = get_le32(header + 4);
  const std::uint32_t want_crc = get_le32(header + 8);
  if (length > kMaxFrameBytes) {
    throw WireError("wire: frame length " + std::to_string(length) +
                    " exceeds cap");
  }
  payload.resize(length);
  if (length > 0) {
    read_exact(fd, payload.data(), length, /*eof_ok=*/false);
  }
  if (crc32(payload.data(), payload.size()) != want_crc) {
    throw WireError("wire: frame CRC mismatch");
  }
  return ReadStatus::ok;
}

}  // namespace pgmr::proc
