// Tests for the serving wire protocol: encoder/decoder round trips,
// malformed-payload rejection, CRC (v2) framing, hello negotiation,
// mid-frame read deadlines, frame I/O over real fds, and a seeded fuzzer
// that throws random bytes, truncations, and oversized length prefixes at
// every decoder (ASan/UBSan in CI turn any over-read into a hard failure).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "serve/protocol.hpp"

namespace sparkxd::serve {
namespace {

ClassifyRequest sample_request() {
  ClassifyRequest req;
  req.id = 0x1122334455667788ULL;
  req.seed = 0xdeadbeefcafef00dULL;
  req.image = {0.0f, 0.25f, 0.5f, 1.0f};
  return req;
}

ServerStats sample_stats() {
  ServerStats stats;
  stats.served = 1000;
  stats.batches = 131;
  stats.max_queue_depth = 77;
  stats.generation = 3;
  stats.wedged_events = 1;
  stats.deadline_exceeded = 12;
  stats.bad_frames = 4;
  stats.evicted_slow = 2;
  stats.rejected_conns = 9;
  return stats;
}

TEST(ServeProtocolTest, ClassifyRoundTrip) {
  const auto req = sample_request();
  const auto payload = encode_classify(req);
  EXPECT_EQ(frame_type(payload), MsgType::kClassify);
  const auto back = decode_classify(payload);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.image, req.image);
}

TEST(ServeProtocolTest, ReplyRoundTrip) {
  ClassifyReply rep;
  rep.id = 42;
  rep.label = -1;
  rep.spikes = 17;
  rep.flips = 3;
  const auto payload = encode_reply(rep);
  EXPECT_EQ(frame_type(payload), MsgType::kReply);
  EXPECT_EQ(decode_reply(payload), rep);
}

TEST(ServeProtocolTest, StatsRoundTrip) {
  const auto stats = sample_stats();
  const auto payload = encode_stats_reply(stats);
  EXPECT_EQ(frame_type(payload), MsgType::kStatsReply);
  EXPECT_EQ(payload.size(), 1u + 9 * 8);  // type byte + nine u64 counters
  EXPECT_EQ(decode_stats_reply(payload), stats);
  // The documented wire order: served, batches, max_queue_depth,
  // generation, wedged_events, deadline_exceeded, bad_frames,
  // evicted_slow, rejected_conns.
  const std::uint64_t wire[] = {1000, 131, 77, 3, 1, 12, 4, 2, 9};
  for (std::size_t k = 0; k < 9; ++k) {
    std::uint64_t v = 0;
    std::memcpy(&v, payload.data() + 1 + 8 * k, sizeof(v));
    EXPECT_EQ(v, wire[k]) << "counter " << k;
  }
  EXPECT_EQ(format_stats(stats),
            "served=1000 batches=131 max_queue_depth=77 generation=3 "
            "wedged_events=1 deadline_exceeded=12 bad_frames=4 "
            "evicted_slow=2 rejected_conns=9");
  EXPECT_EQ(frame_type(encode_stats_request()), MsgType::kStats);
}

TEST(ServeProtocolTest, QueueFullRoundTrip) {
  const std::uint64_t id = 0xfeedfacecafebeefULL;
  const auto payload = encode_queue_full(id);
  EXPECT_EQ(frame_type(payload), MsgType::kQueueFull);
  EXPECT_EQ(decode_queue_full(payload), id);
}

TEST(ServeProtocolTest, DeadlineExceededRoundTrip) {
  const std::uint64_t id = 0x0123456789abcdefULL;
  const auto payload = encode_deadline_exceeded(id);
  EXPECT_EQ(frame_type(payload), MsgType::kDeadlineExceeded);
  EXPECT_EQ(decode_deadline_exceeded(payload), id);
  // The two rejection frames must not be confusable.
  EXPECT_THROW((void)decode_queue_full(payload), ContractViolation);
}

TEST(ServeProtocolTest, BadFrameRoundTrip) {
  const auto payload = encode_bad_frame();
  EXPECT_EQ(frame_type(payload), MsgType::kBadFrame);
}

TEST(ServeProtocolTest, HelloRoundTrip) {
  for (const bool crc : {false, true}) {
    const Hello hello{crc ? kProtocolV2 : kProtocolV1, crc};
    const auto payload = encode_hello(hello);
    EXPECT_EQ(frame_type(payload), MsgType::kHello);
    EXPECT_EQ(decode_hello(payload), hello);
    const auto ack = encode_hello_ack(hello);
    EXPECT_EQ(frame_type(ack), MsgType::kHelloAck);
    EXPECT_EQ(decode_hello_ack(ack), hello);
  }
}

TEST(ServeProtocolTest, HelloRejectsBadVersionAndFlags) {
  // CRC flag requires protocol v2.
  EXPECT_THROW((void)encode_hello(Hello{kProtocolV1, true}),
               ContractViolation);
  // Unknown version on the wire.
  auto payload = encode_hello(Hello{kProtocolV2, true});
  payload[1] = 99;
  EXPECT_THROW((void)decode_hello(payload), ContractViolation);
  // Unknown flag bits on the wire.
  auto flags = encode_hello(Hello{kProtocolV2, true});
  flags.back() = 0x80 | kHelloFlagCrc;
  EXPECT_THROW((void)decode_hello(flags), ContractViolation);
}

TEST(ServeProtocolTest, Crc32KnownVector) {
  // The classic check value: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(ServeProtocolTest, FrameWireBytesCarryCrcTrailer) {
  const auto payload = encode_queue_full(7);
  const auto plain = frame_wire_bytes(payload, false);
  const auto checked = frame_wire_bytes(payload, true);
  EXPECT_EQ(plain.size(), 4 + payload.size());
  EXPECT_EQ(checked.size(), 4 + payload.size() + 4);
  // The CRC-mode length prefix covers payload + trailer.
  std::uint32_t len = 0;
  std::memcpy(&len, checked.data(), 4);
  EXPECT_EQ(len, payload.size() + 4);
}

TEST(ServeProtocolTest, RejectsMalformedPayloads) {
  EXPECT_THROW((void)frame_type({}), ContractViolation);

  auto queue_full = encode_queue_full(7);
  EXPECT_THROW((void)decode_queue_full(encode_stats_request()),
               ContractViolation);  // wrong type byte
  queue_full.pop_back();
  EXPECT_THROW((void)decode_queue_full(queue_full), ContractViolation);

  auto classify = encode_classify(sample_request());
  // Wrong type byte for the decoder.
  EXPECT_THROW((void)decode_reply(classify), ContractViolation);
  // Truncated: pixel count no longer matches the payload length.
  classify.pop_back();
  EXPECT_THROW((void)decode_classify(classify), ContractViolation);

  ClassifyReply rep;
  auto reply = encode_reply(rep);
  reply.push_back(0);  // trailing garbage
  EXPECT_THROW((void)decode_reply(reply), ContractViolation);

  auto stats = encode_stats_reply(sample_stats());
  stats.push_back(0);  // trailing garbage
  EXPECT_THROW((void)decode_stats_reply(stats), ContractViolation);
  stats.resize(stats.size() - 4);  // cut inside the last counter
  EXPECT_THROW((void)decode_stats_reply(stats), ContractViolation);
}

/// Seeded protocol fuzzer: every decoder must survive random bytes,
/// truncations of valid frames, and byte-level mutations without crashing
/// or over-reading — a malformed payload either decodes (when the mutation
/// happens to keep it well-formed) or throws ContractViolation, nothing
/// else. The sanitizer CI job runs this under ASan+UBSan, which promotes
/// any out-of-bounds read in a decoder into a test failure.
TEST(ServeProtocolTest, FuzzDecodersSurviveGarbage) {
  Rng rng(0x5EEDF00DULL);
  const auto poke_all = [](const std::vector<std::uint8_t>& p) {
    const auto poke = [&p](auto&& decode) {
      try {
        (void)decode(p);
      } catch (const ContractViolation&) {
      }
    };
    poke([](const auto& x) { return frame_type(x); });
    poke([](const auto& x) { return decode_classify(x); });
    poke([](const auto& x) { return decode_reply(x); });
    poke([](const auto& x) { return decode_stats_reply(x); });
    poke([](const auto& x) { return decode_queue_full(x); });
    poke([](const auto& x) { return decode_deadline_exceeded(x); });
    poke([](const auto& x) { return decode_hello(x); });
    poke([](const auto& x) { return decode_hello_ack(x); });
  };

  // Pure random payloads of random lengths (including empty).
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> payload(rng.index(64));
    for (auto& b : payload)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    poke_all(payload);
  }

  // Truncations and single-byte mutations of every valid frame kind.
  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_classify(sample_request()),
      encode_reply(ClassifyReply{3, 1, 9, 2}),
      encode_stats_request(),
      encode_stats_reply(sample_stats()),
      encode_queue_full(11),
      encode_deadline_exceeded(12),
      encode_bad_frame(),
      encode_hello(Hello{kProtocolV2, true}),
      encode_hello_ack(Hello{kProtocolV1, false}),
  };
  for (const auto& seed : seeds) {
    for (std::size_t cut = 0; cut <= seed.size(); ++cut)
      poke_all({seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(cut)});
    for (int i = 0; i < 100; ++i) {
      auto mutated = seed;
      if (!mutated.empty())
        mutated[rng.index(mutated.size())] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      if (rng.bernoulli(0.3)) mutated.push_back(0xFF);  // trailing garbage
      poke_all(mutated);
    }
  }
}

/// Frame I/O runs over a socketpair — the same fd type the server uses, so
/// the send/recv path (MSG_NOSIGNAL) is what gets exercised.
class ServeFrameIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(ServeFrameIoTest, WriteThenReadRoundTrips) {
  const auto req = sample_request();
  ASSERT_TRUE(write_frame(fds_[0], encode_classify(req)));
  ASSERT_TRUE(write_frame(fds_[0], encode_stats_request()));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fds_[1], payload));
  EXPECT_EQ(decode_classify(payload).image, req.image);
  ASSERT_TRUE(read_frame(fds_[1], payload));
  EXPECT_EQ(frame_type(payload), MsgType::kStats);
}

TEST_F(ServeFrameIoTest, CleanEofReturnsFalse) {
  ::close(fds_[0]);
  fds_[0] = -1;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(fds_[1], payload));
}

TEST_F(ServeFrameIoTest, TruncatedFrameThrows) {
  // A length prefix promising 100 bytes, then EOF after 3.
  const std::uint32_t len = 100;
  ASSERT_EQ(::write(fds_[0], &len, sizeof(len)),
            static_cast<::ssize_t>(sizeof(len)));
  const std::uint8_t partial[3] = {1, 2, 3};
  ASSERT_EQ(::write(fds_[0], partial, sizeof(partial)),
            static_cast<::ssize_t>(sizeof(partial)));
  ::close(fds_[0]);
  fds_[0] = -1;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)read_frame(fds_[1], payload), ContractViolation);
}

TEST_F(ServeFrameIoTest, OversizedLengthPrefixThrows) {
  const std::uint32_t len = kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds_[0], &len, sizeof(len)),
            static_cast<::ssize_t>(sizeof(len)));
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)read_frame(fds_[1], payload), ContractViolation);
}

TEST_F(ServeFrameIoTest, WriteToClosedPeerReturnsFalse) {
  ::close(fds_[1]);
  fds_[1] = -1;
  // Large enough to overflow any kernel buffer on the first write; must
  // come back as `false`, not SIGPIPE.
  ClassifyRequest req = sample_request();
  req.image.assign(1 << 20, 0.5f);
  EXPECT_FALSE(write_frame(fds_[0], encode_classify(req)));
}

TEST_F(ServeFrameIoTest, CrcFramesRoundTripAndDetectCorruption) {
  const auto req = sample_request();
  ASSERT_TRUE(write_frame(fds_[0], encode_classify(req), /*crc=*/true));
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{true, 0}),
            ReadStatus::kFrame);
  EXPECT_EQ(decode_classify(payload).image, req.image);

  // Flip one payload bit on the wire: the reader must report kBadCrc, not
  // hand the frame to a decoder.
  auto wire = frame_wire_bytes(encode_classify(req), /*crc=*/true);
  wire[5] ^= 0x01;
  ASSERT_TRUE(send_bytes(fds_[0], wire.data(), wire.size()));
  ASSERT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{true, 0}),
            ReadStatus::kBadCrc);

  // A flipped CRC-trailer bit is equally fatal.
  wire = frame_wire_bytes(encode_classify(req), /*crc=*/true);
  wire.back() ^= 0x80;
  ASSERT_TRUE(send_bytes(fds_[0], wire.data(), wire.size()));
  ASSERT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{true, 0}),
            ReadStatus::kBadCrc);
}

TEST_F(ServeFrameIoTest, CrcModeRejectsFrameTooShortForTrailer) {
  // len=2 cannot carry the 4-byte CRC trailer: hostile/corrupt stream.
  const std::uint32_t len = 2;
  ASSERT_EQ(::write(fds_[0], &len, sizeof(len)),
            static_cast<::ssize_t>(sizeof(len)));
  const std::uint8_t body[2] = {1, 2};
  ASSERT_EQ(::write(fds_[0], body, sizeof(body)), 2);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)read_frame_ex(fds_[1], payload, FrameOptions{true, 0}),
               ContractViolation);
}

TEST_F(ServeFrameIoTest, MidFrameDeadlineFiresOnlyAfterFirstByte) {
  std::vector<std::uint8_t> payload;

  // Torn frame: a few bytes, then silence. The mid-frame deadline must
  // fire (kTimeout), not block forever.
  const std::uint32_t len = 64;
  ASSERT_EQ(::write(fds_[0], &len, sizeof(len)),
            static_cast<::ssize_t>(sizeof(len)));
  EXPECT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{false, 50}),
            ReadStatus::kTimeout);
}

TEST_F(ServeFrameIoTest, IdleConnectionDoesNotTimeOut) {
  // Nothing sent at all: an idle peer at a frame boundary must be waited
  // for, not evicted. Write the frame from another thread after a delay
  // longer than the mid-frame deadline.
  std::thread writer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    (void)write_frame(fds_[0], encode_stats_request());
  });
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{false, 50}),
            ReadStatus::kFrame);
  EXPECT_EQ(frame_type(payload), MsgType::kStats);
  writer.join();
}

TEST_F(ServeFrameIoTest, DrippedFrameCompletesWithinDeadline) {
  // A slow writer that stays under the deadline per chunk is fine.
  const auto wire = frame_wire_bytes(encode_stats_request(), false);
  std::thread writer([this, wire] {
    for (const std::uint8_t b : wire) {
      ASSERT_TRUE(send_bytes(fds_[0], &b, 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{false, 5000}),
            ReadStatus::kFrame);
  EXPECT_EQ(frame_type(payload), MsgType::kStats);
  writer.join();
}

TEST_F(ServeFrameIoTest, BufferedFrameIsReadPastItsDeadline) {
  // The whole frame is buffered before the read starts, so no peer is
  // stalling. A 1 ms deadline has under one whole millisecond left at the
  // first check after the first byte, which truncates to zero — the same
  // state as a reader descheduled past its deadline. Neither may evict a
  // frame whose bytes have already landed.
  ASSERT_TRUE(write_frame(fds_[0], encode_classify(sample_request())));
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(read_frame_ex(fds_[1], payload, FrameOptions{false, 1}),
            ReadStatus::kFrame);
  EXPECT_EQ(decode_classify(payload).image, sample_request().image);
}

}  // namespace
}  // namespace sparkxd::serve
