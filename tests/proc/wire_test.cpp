// Wire-protocol properties (satellite of the process-isolation PR):
//  * every message codec round-trips bit-exactly over a real socketpair;
//  * malformed input — truncated frames, oversized lengths, corrupt CRCs,
//    bad magic, short payloads, trailing bytes, stats from a different
//    metric table — raises WireError, never crashes or reads out of bounds;
//  * deadlines cross the boundary as remaining-microsecond budgets;
//  * the system spec round-trips a PolygraphSystem bit-identically, which
//    is the property worker-restart determinism stands on.
#include "proc/wire.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <type_traits>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "proc/spec.h"
#include "tensor/random.h"

namespace pgmr::proc {
namespace {

using std::chrono::milliseconds;

/// A connected AF_UNIX stream pair, closed on scope exit.
struct Pair {
  int a = -1, b = -1;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~Pair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void send_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

Tensor random_image(std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0F, 1.0F);
  return x;
}

TEST(WireTest, SubmitRoundTripsOverASocketpair) {
  Pair p;
  SubmitMsg out;
  out.id = 42;
  out.deadline_us = 1500;
  out.image = random_image(7);
  write_frame(p.a, encode_submit(out));

  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(p.b, payload, milliseconds(1000)), ReadStatus::ok);
  ASSERT_EQ(frame_type(payload), FrameType::submit);
  const SubmitMsg in = decode_submit(payload);
  EXPECT_EQ(in.id, 42U);
  EXPECT_EQ(in.deadline_us, 1500);
  ASSERT_EQ(in.image.numel(), out.image.numel());
  ASSERT_EQ(in.image.shape().rank(), 4U);
  for (std::int64_t i = 0; i < in.image.numel(); ++i) {
    EXPECT_EQ(in.image[i], out.image[i]) << "pixel " << i;
  }
}

TEST(WireTest, NoDeadlineTravelsAsNegativeBudget) {
  SubmitMsg out;
  out.id = 1;
  out.image = random_image(3);
  ASSERT_EQ(out.deadline_us, -1);  // the "no deadline" sentinel
  const SubmitMsg in = decode_submit(encode_submit(out));
  EXPECT_LT(in.deadline_us, 0);
}

TEST(WireTest, HelloVerdictAndControlRoundTrip) {
  const HelloMsg hello = decode_hello(encode_hello({1234, 4}));
  EXPECT_EQ(hello.pid, 1234U);
  EXPECT_EQ(hello.members, 4U);

  VerdictMsg v;
  v.id = 9;
  v.status = VerdictStatus::ok;
  v.verdict.label = 2;
  v.verdict.reliable = true;
  v.verdict.votes = 3;
  v.verdict.activated = 4;
  v.verdict.degraded = true;
  const VerdictMsg ok = decode_verdict(encode_verdict(v));
  EXPECT_EQ(ok.id, 9U);
  EXPECT_EQ(ok.status, VerdictStatus::ok);
  EXPECT_EQ(ok.verdict.label, 2);
  EXPECT_TRUE(ok.verdict.reliable);
  EXPECT_EQ(ok.verdict.votes, 3);
  EXPECT_EQ(ok.verdict.activated, 4);
  EXPECT_TRUE(ok.verdict.degraded);

  v.status = VerdictStatus::deadline;
  v.error = "request deadline exceeded";
  const VerdictMsg shed = decode_verdict(encode_verdict(v));
  EXPECT_EQ(shed.status, VerdictStatus::deadline);
  EXPECT_EQ(shed.error, "request deadline exceeded");

  EXPECT_EQ(frame_type(encode_control(FrameType::ping)), FrameType::ping);
  EXPECT_EQ(frame_type(encode_control(FrameType::bye)), FrameType::bye);
}

/// Every metric-table field set to a distinct nonzero value, so a field
/// the codec drops, swaps or misaligns cannot round-trip unnoticed.
runtime::MetricsSnapshot distinct_snapshot() {
  runtime::MetricsSnapshot s;
  std::uint64_t next = 1;
  runtime::for_each_metric([&](const char*, auto field, runtime::Merge) {
    auto& value = s.*field;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::uint64_t>) {
      value = next++;
    } else {
      if constexpr (requires { value.resize(3); }) value.resize(3);
      for (std::uint64_t& x : value) x = next++;
    }
  });
  return s;
}

TEST(WireTest, StatsRoundTripPreservesEveryCounter) {
  const runtime::MetricsSnapshot s = distinct_snapshot();
  EXPECT_EQ(decode_stats(encode_stats(s)), s);
}

TEST(WireTest, TrailingBytesAreRejected) {
  SubmitMsg submit;
  submit.image = random_image(3);
  VerdictMsg verdict;
  verdict.verdict.label = 2;
  const auto with_tail = [](std::vector<std::uint8_t> payload) {
    payload.push_back(0);
    return payload;
  };
  EXPECT_THROW(decode_hello(with_tail(encode_hello({1, 3}))), WireError);
  EXPECT_THROW(decode_submit(with_tail(encode_submit(submit))), WireError);
  EXPECT_THROW(decode_verdict(with_tail(encode_verdict(verdict))), WireError);
  EXPECT_THROW(decode_stats(with_tail(encode_stats(distinct_snapshot()))),
               WireError);
}

TEST(WireTest, ControlFramesWithTrailingBytesAreRejected) {
  for (const FrameType type : {FrameType::ping, FrameType::pong,
                               FrameType::shutdown, FrameType::bye}) {
    std::vector<std::uint8_t> payload = encode_control(type);
    EXPECT_EQ(frame_type(payload), type);
    payload.push_back(0xff);
    EXPECT_THROW(frame_type(payload), WireError)
        << "type " << static_cast<int>(type);
  }
}

TEST(WireTest, StatsFromADifferentMetricTableAreRejected) {
  // Byte 0 is the frame type; bytes 1..4 carry the sender's scalar count.
  // A worker whose table has one more scalar would send count + 1.
  std::vector<std::uint8_t> payload = encode_stats(distinct_snapshot());
  ++payload[1];
  EXPECT_THROW(decode_stats(payload), WireError);
}

TEST(WireTest, TimeoutAndOrderlyEofAreStatusesNotErrors) {
  Pair p;
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame(p.b, payload, milliseconds(10)), ReadStatus::timeout);
  ::close(p.a);
  p.a = -1;
  EXPECT_EQ(read_frame(p.b, payload, milliseconds(10)), ReadStatus::eof);
}

TEST(WireTest, TruncatedFrameIsAWireErrorNotACrash) {
  Pair p;
  // A valid header promising 100 bytes, then only 3 arrive before EOF.
  std::vector<std::uint8_t> raw;
  put32(raw, kFrameMagic);
  put32(raw, 100);
  put32(raw, 0xdeadbeef);
  raw.push_back(1);
  raw.push_back(2);
  raw.push_back(3);
  send_raw(p.a, raw);
  ::close(p.a);
  p.a = -1;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(p.b, payload, milliseconds(1000)), WireError);
}

TEST(WireTest, OversizedLengthIsRejectedBeforeAllocation) {
  Pair p;
  std::vector<std::uint8_t> raw;
  put32(raw, kFrameMagic);
  put32(raw, kMaxFrameBytes + 1);  // a corrupt length asking for 64MiB+
  put32(raw, 0);
  send_raw(p.a, raw);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(p.b, payload, milliseconds(1000)), WireError);
}

TEST(WireTest, CorruptCrcIsRejected) {
  Pair p;
  const std::vector<std::uint8_t> payload = encode_control(FrameType::ping);
  std::vector<std::uint8_t> raw;
  put32(raw, kFrameMagic);
  put32(raw, static_cast<std::uint32_t>(payload.size()));
  put32(raw, 0x12345678);  // wrong CRC
  raw.insert(raw.end(), payload.begin(), payload.end());
  send_raw(p.a, raw);
  std::vector<std::uint8_t> got;
  EXPECT_THROW(read_frame(p.b, got, milliseconds(1000)), WireError);
}

TEST(WireTest, BadMagicIsRejected) {
  Pair p;
  std::vector<std::uint8_t> raw;
  put32(raw, 0x41424344);
  put32(raw, 0);
  put32(raw, 0);
  send_raw(p.a, raw);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(p.b, payload, milliseconds(1000)), WireError);
}

TEST(WireTest, ShortPayloadsFailDecodingLoudly) {
  // A submit frame truncated mid-tensor: framing is valid, decoding must
  // still be bounds-checked.
  SubmitMsg m;
  m.id = 5;
  m.image = random_image(11);
  std::vector<std::uint8_t> payload = encode_submit(m);
  payload.resize(payload.size() / 2);
  EXPECT_THROW(decode_submit(payload), WireError);

  // Unknown frame type byte.
  EXPECT_THROW(frame_type({0x7f}), WireError);
  EXPECT_THROW(frame_type({}), WireError);

  // A tensor whose recorded rank exceeds the maximum.
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(FrameType::submit));
  w.u64(1);
  w.i64(-1);
  w.u8(7);  // rank 7 > kMaxRank
  EXPECT_THROW(decode_submit(w.take()), WireError);
}

TEST(WireTest, BackToBackFramesStayDelimited) {
  Pair p;
  write_frame(p.a, encode_control(FrameType::ping));
  write_frame(p.a, encode_hello({77, 2}));
  write_frame(p.a, encode_control(FrameType::bye));

  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(p.b, payload, milliseconds(1000)), ReadStatus::ok);
  EXPECT_EQ(frame_type(payload), FrameType::ping);
  ASSERT_EQ(read_frame(p.b, payload, milliseconds(1000)), ReadStatus::ok);
  EXPECT_EQ(decode_hello(payload).pid, 77U);
  ASSERT_EQ(read_frame(p.b, payload, milliseconds(1000)), ReadStatus::ok);
  EXPECT_EQ(frame_type(payload), FrameType::bye);
}

// ---- system spec ---------------------------------------------------------

nn::Network tiny_net(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Flatten>());
  auto up = std::make_unique<nn::Dense>(16, 8);
  up->init(rng);
  layers.push_back(std::move(up));
  layers.push_back(std::make_unique<nn::ReLU>());
  auto down = std::make_unique<nn::Dense>(8, 3);
  down->init(rng);
  layers.push_back(std::move(down));
  return nn::Network("tiny", std::move(layers));
}

polygraph::PolygraphSystem tiny_system() {
  mr::Ensemble e;
  for (std::uint64_t m = 0; m < 2; ++m) {
    e.add(mr::Member(std::make_unique<prep::Identity>(), tiny_net(m + 1)));
  }
  polygraph::PolygraphSystem sys(std::move(e));
  sys.set_thresholds({0.4F, 2});
  return sys;
}

TEST(SpecTest, SystemSpecRoundTripsBitIdentically) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pgmr-spec-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  polygraph::PolygraphSystem original = tiny_system();
  runtime::RuntimeOptions options;
  options.max_batch = 4;
  options.queue_capacity = 32;
  options.quarantine_after = 5;
  write_system_spec(dir.string(), original, options);

  WorkerSystem loaded = load_system_spec(dir.string());
  EXPECT_EQ(loaded.system.ensemble().size(), 2U);
  EXPECT_EQ(loaded.options.max_batch, 4U);
  EXPECT_EQ(loaded.options.queue_capacity, 32U);
  EXPECT_EQ(loaded.options.quarantine_after, 5);
  ASSERT_EQ(loaded.options.protection_per_member.size(), 2U);

  // The restart-determinism property: the reconstructed system's verdicts
  // are bit-identical to the original's.
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    const Tensor image = random_image(seed);
    const polygraph::Verdict want = original.predict(image);
    const polygraph::Verdict got = loaded.system.predict(image);
    EXPECT_EQ(got.label, want.label) << "seed " << seed;
    EXPECT_EQ(got.reliable, want.reliable) << "seed " << seed;
    EXPECT_EQ(got.votes, want.votes) << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

TEST(SpecTest, TrailingByteAfterLastFieldThrows) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pgmr-spec-trailing-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  polygraph::PolygraphSystem system = tiny_system();
  write_system_spec(dir.string(), system, runtime::RuntimeOptions{});
  ASSERT_NO_THROW(load_system_spec(dir.string()));

  // One extra byte, as a spec written with more fields would leave.
  std::ofstream(dir / "spec.pgmr", std::ios::binary | std::ios::app).put('\0');
  EXPECT_THROW(load_system_spec(dir.string()), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(SpecTest, MissingSpecDirectoryThrows) {
  EXPECT_THROW(load_system_spec("/nonexistent/pgmr-spec"),
               std::runtime_error);
}

}  // namespace
}  // namespace pgmr::proc
