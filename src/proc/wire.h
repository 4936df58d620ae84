// Wire protocol between a ShardSupervisor and its pgmr-shard-worker child.
//
// Framing: every message travels as one frame over a SOCK_STREAM Unix
// socketpair —
//
//   u32 magic "PGMW" | u32 payload length | u32 CRC-32(payload) | payload
//
// all little-endian. The CRC is the same IEEE polynomial the archive
// format uses (tensor/crc32.h); a frame whose magic, length (> kMaxFrame)
// or CRC disagrees raises WireError on the reader without consuming more
// of the stream — the connection is considered poisoned and the peer
// fail-stops it (the supervisor restarts the worker, the worker exits).
// Nothing in the protocol can crash either side on malformed input: every
// payload decoder is bounds-checked, throws WireError instead of reading
// out of range, and rejects bytes left over after its last field.
//
// Payloads: the first byte is the FrameType, the rest is type-specific.
//
//   hello     worker -> sup   pid + ensemble member count; "serving now"
//   submit    sup -> worker   request id, deadline budget, [1,C,H,W] image
//   verdict   worker -> sup   request id + Verdict, or an error class
//   stats     worker -> sup   cumulative runtime::MetricsSnapshot, led by
//                             the metric table's scalar count; sent after
//                             every verdict and at drain, so the
//                             supervisor's view survives a SIGKILL with at
//                             most one request of drift
//   ping/pong either          heartbeat probe and its echo
//   shutdown  sup -> worker   drain accepted requests, reply, then exit
//   bye       worker -> sup   drain complete, about to _exit(0)
//
// Deadlines cross the process boundary as *remaining microseconds* (the
// two sides do not share a steady_clock epoch); the worker re-anchors the
// budget against its own clock on receipt.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "polygraph/system.h"
#include "runtime/metrics.h"
#include "tensor/tensor.h"

namespace pgmr::proc {

/// Any framing/codec violation: truncated stream, bad magic, oversized
/// length, CRC mismatch, or a payload shorter or longer than its decoder
/// expects.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kFrameMagic = 0x57'4D'47'50;  // "PGMW"
/// Upper bound on one payload — far above any image frame, far below
/// anything that could be a corrupt length field asking to allocate GBs.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  hello = 1,
  submit = 2,
  verdict = 3,
  stats = 4,
  ping = 5,
  pong = 6,
  shutdown = 7,
  bye = 8,
};

/// Bounds-checked little-endian payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void str(const std::string& s);
  void tensor(const Tensor& t);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked payload parser; every read throws WireError once the
/// payload is exhausted, so corrupt frames fail loudly, never UB.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  std::string str();
  Tensor tensor();

  /// Throws WireError unless every byte has been read: a decoder that
  /// finishes early was handed a frame of another shape.
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// ---- message codecs ------------------------------------------------------

struct HelloMsg {
  std::uint64_t pid = 0;
  std::uint32_t members = 0;
};

struct SubmitMsg {
  std::uint64_t id = 0;
  /// Remaining deadline budget in microseconds; negative = no deadline.
  std::int64_t deadline_us = -1;
  Tensor image;
};

/// How a request ended on the worker side.
enum class VerdictStatus : std::uint8_t {
  ok = 0,
  deadline = 1,  ///< shed by the worker's batcher (DeadlineExceeded)
  stopped = 2,   ///< worker was draining / runtime refused the request
  error = 3,     ///< inference raised; message carries what()
};

struct VerdictMsg {
  std::uint64_t id = 0;
  VerdictStatus status = VerdictStatus::ok;
  polygraph::Verdict verdict;  ///< meaningful for status == ok
  std::string error;           ///< meaningful for status != ok
};

std::vector<std::uint8_t> encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_submit(const SubmitMsg& m);
SubmitMsg decode_submit(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_verdict(const VerdictMsg& m);
VerdictMsg decode_verdict(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_stats(const runtime::MetricsSnapshot& s);
runtime::MetricsSnapshot decode_stats(
    const std::vector<std::uint8_t>& payload);

/// ping/pong/shutdown/bye carry no body beyond the type byte.
std::vector<std::uint8_t> encode_control(FrameType type);

/// FrameType of an already-decoded payload (its first byte). Throws
/// WireError on an empty payload, an unknown type value, or a control
/// frame (ping/pong/shutdown/bye) with bytes after its type byte.
FrameType frame_type(const std::vector<std::uint8_t>& payload);

// ---- frame I/O -----------------------------------------------------------

enum class ReadStatus {
  ok,       ///< one whole frame decoded into `payload`
  timeout,  ///< nothing arrived within the poll window
  eof,      ///< orderly EOF at a frame boundary (peer closed)
};

/// Writes one frame (header + payload) to `fd`, retrying short writes.
/// Throws WireError when the descriptor fails (EPIPE after the peer died).
void write_frame(int fd, const std::vector<std::uint8_t>& payload);

/// Reads one frame. Waits up to `timeout` for the *first* byte (timeout
/// => ReadStatus::timeout, nothing consumed); once a header begins, reads
/// the full frame, throwing WireError on mid-frame EOF, bad magic,
/// oversized length or CRC mismatch. `timeout` < 0 blocks indefinitely.
ReadStatus read_frame(int fd, std::vector<std::uint8_t>& payload,
                      std::chrono::milliseconds timeout);

}  // namespace pgmr::proc
