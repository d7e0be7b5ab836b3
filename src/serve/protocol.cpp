#include "serve/protocol.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"

namespace sparkxd::serve {

namespace {

// Raw little-endian POD append/extract. The framework already reads and
// writes PODs byte for byte (model_io, the artifact), so the wire format
// shares that convention.

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  SPARKXD_REQUIRE(pos + sizeof(T) <= in.size(),
                  "truncated protocol payload");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

void require_type(const std::vector<std::uint8_t>& payload, MsgType want) {
  SPARKXD_REQUIRE(frame_type(payload) == want,
                  "unexpected protocol message type");
}

std::vector<std::uint8_t> encode_id_frame(MsgType type, std::uint64_t id) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 8);
  out.push_back(static_cast<std::uint8_t>(type));
  put(out, id);
  return out;
}

std::uint64_t decode_id_frame(const std::vector<std::uint8_t>& payload,
                              MsgType type) {
  require_type(payload, type);
  std::size_t pos = 1;
  const auto id = get<std::uint64_t>(payload, pos);
  SPARKXD_REQUIRE(pos == payload.size(), "oversized id-frame payload");
  return id;
}

std::vector<std::uint8_t> encode_hello_frame(MsgType type,
                                             const Hello& hello) {
  SPARKXD_REQUIRE(hello.version == kProtocolV1 || hello.version == kProtocolV2,
                  "unsupported protocol version in hello");
  SPARKXD_REQUIRE(!hello.crc || hello.version == kProtocolV2,
                  "CRC framing requires protocol v2");
  std::vector<std::uint8_t> out;
  out.reserve(1 + 4 + 1);
  out.push_back(static_cast<std::uint8_t>(type));
  put(out, hello.version);
  put(out, static_cast<std::uint8_t>(hello.crc ? kHelloFlagCrc : 0));
  return out;
}

Hello decode_hello_frame(const std::vector<std::uint8_t>& payload,
                         MsgType type) {
  require_type(payload, type);
  std::size_t pos = 1;
  Hello hello;
  hello.version = get<std::uint32_t>(payload, pos);
  const auto flags = get<std::uint8_t>(payload, pos);
  SPARKXD_REQUIRE(pos == payload.size(), "oversized hello payload");
  SPARKXD_REQUIRE((flags & ~kHelloFlagCrc) == 0, "unknown hello flags");
  hello.crc = (flags & kHelloFlagCrc) != 0;
  SPARKXD_REQUIRE(hello.version == kProtocolV1 || hello.version == kProtocolV2,
                  "unsupported protocol version in hello");
  SPARKXD_REQUIRE(!hello.crc || hello.version == kProtocolV2,
                  "CRC framing requires protocol v2");
  return hello;
}

}  // namespace

MsgType frame_type(const std::vector<std::uint8_t>& payload) {
  SPARKXD_REQUIRE(!payload.empty(), "empty protocol payload");
  return static_cast<MsgType>(payload[0]);
}

std::vector<std::uint8_t> encode_classify(const ClassifyRequest& request) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 8 + 8 + 4 + request.image.size() * sizeof(float));
  out.push_back(static_cast<std::uint8_t>(MsgType::kClassify));
  put(out, request.id);
  put(out, request.seed);
  put(out, static_cast<std::uint32_t>(request.image.size()));
  for (const float px : request.image) put(out, px);
  return out;
}

ClassifyRequest decode_classify(const std::vector<std::uint8_t>& payload) {
  require_type(payload, MsgType::kClassify);
  std::size_t pos = 1;
  ClassifyRequest req;
  req.id = get<std::uint64_t>(payload, pos);
  req.seed = get<std::uint64_t>(payload, pos);
  const auto n = get<std::uint32_t>(payload, pos);
  SPARKXD_REQUIRE(pos + static_cast<std::size_t>(n) * sizeof(float) ==
                      payload.size(),
                  "classify payload length does not match its pixel count");
  req.image.resize(n);
  for (auto& px : req.image) px = get<float>(payload, pos);
  return req;
}

std::vector<std::uint8_t> encode_reply(const ClassifyReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 8 + 4 + 4 + 4);
  out.push_back(static_cast<std::uint8_t>(MsgType::kReply));
  put(out, reply.id);
  put(out, reply.label);
  put(out, reply.spikes);
  put(out, reply.flips);
  return out;
}

ClassifyReply decode_reply(const std::vector<std::uint8_t>& payload) {
  require_type(payload, MsgType::kReply);
  std::size_t pos = 1;
  ClassifyReply rep;
  rep.id = get<std::uint64_t>(payload, pos);
  rep.label = get<std::int32_t>(payload, pos);
  rep.spikes = get<std::uint32_t>(payload, pos);
  rep.flips = get<std::uint32_t>(payload, pos);
  SPARKXD_REQUIRE(pos == payload.size(), "oversized reply payload");
  return rep;
}

std::vector<std::uint8_t> encode_stats_request() {
  return {static_cast<std::uint8_t>(MsgType::kStats)};
}

std::vector<std::uint8_t> encode_stats_reply(const ServerStats& stats) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + std::size(kServerStatsFields) * sizeof(std::uint64_t));
  out.push_back(static_cast<std::uint8_t>(MsgType::kStatsReply));
  for (const auto& [name, field] : kServerStatsFields) put(out, stats.*field);
  return out;
}

std::string format_stats(const ServerStats& stats) {
  std::string out;
  for (const auto& [name, field] : kServerStatsFields) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(stats.*field);
  }
  return out;
}

std::vector<std::uint8_t> encode_queue_full(std::uint64_t id) {
  return encode_id_frame(MsgType::kQueueFull, id);
}

std::uint64_t decode_queue_full(const std::vector<std::uint8_t>& payload) {
  return decode_id_frame(payload, MsgType::kQueueFull);
}

std::vector<std::uint8_t> encode_deadline_exceeded(std::uint64_t id) {
  return encode_id_frame(MsgType::kDeadlineExceeded, id);
}

std::uint64_t decode_deadline_exceeded(
    const std::vector<std::uint8_t>& payload) {
  return decode_id_frame(payload, MsgType::kDeadlineExceeded);
}

std::vector<std::uint8_t> encode_bad_frame() {
  return {static_cast<std::uint8_t>(MsgType::kBadFrame)};
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  return encode_hello_frame(MsgType::kHello, hello);
}

std::vector<std::uint8_t> encode_hello_ack(const Hello& hello) {
  return encode_hello_frame(MsgType::kHelloAck, hello);
}

Hello decode_hello(const std::vector<std::uint8_t>& payload) {
  return decode_hello_frame(payload, MsgType::kHello);
}

Hello decode_hello_ack(const std::vector<std::uint8_t>& payload) {
  return decode_hello_frame(payload, MsgType::kHelloAck);
}

ServerStats decode_stats_reply(const std::vector<std::uint8_t>& payload) {
  require_type(payload, MsgType::kStatsReply);
  std::size_t pos = 1;
  ServerStats stats;
  for (const auto& [name, field] : kServerStatsFields)
    stats.*field = get<std::uint64_t>(payload, pos);
  SPARKXD_REQUIRE(pos == payload.size(), "oversized stats payload");
  return stats;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> frame_wire_bytes(
    const std::vector<std::uint8_t>& payload, bool crc) {
  SPARKXD_REQUIRE(!payload.empty() && payload.size() <= kMaxFrameBytes,
                  "frame payload must be non-empty and bounded");
  const auto len = static_cast<std::uint32_t>(payload.size() + (crc ? 4 : 0));
  std::vector<std::uint8_t> buf;
  buf.reserve(sizeof(len) + len);
  put(buf, len);
  buf.insert(buf.end(), payload.begin(), payload.end());
  if (crc) put(buf, crc32(payload.data(), payload.size()));
  return buf;
}

bool send_bytes(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL keeps a vanished peer from raising SIGPIPE at the
    // server; non-socket fds (tests use pipes too) fall back to write().
    ::ssize_t r = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) r = ::write(fd, data + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone (EPIPE/ECONNRESET) or fd closed
    }
    done += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload, bool crc) {
  const auto buf = frame_wire_bytes(payload, crc);
  return send_bytes(fd, buf.data(), buf.size());
}

namespace {

using Clock = std::chrono::steady_clock;

/// Waits until `fd` is readable (or has an error/hangup to report). A null
/// deadline waits forever. Returns false on deadline expiry. A passed
/// deadline still polls once without waiting: bytes that landed while this
/// thread was descheduled are not a stalled peer.
bool wait_readable(int fd, const Clock::time_point* deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != nullptr) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            *deadline - Clock::now())
                            .count();
      timeout_ms = static_cast<int>(std::max<long long>(left, 0));
    }
    ::pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return true;  // let the read surface the error
    }
    if (r == 0) return false;  // timeout
    return true;
  }
}

/// Reads exactly `n` bytes, honoring an optional absolute deadline between
/// reads; returns the byte count actually read (short on EOF, error, or
/// deadline — `timed_out` distinguishes the latter).
std::size_t read_full_deadline(int fd, std::uint8_t* out, std::size_t n,
                               const Clock::time_point* deadline,
                               bool* timed_out) {
  std::size_t done = 0;
  while (done < n) {
    if (!wait_readable(fd, deadline)) {
      if (timed_out != nullptr) *timed_out = true;
      break;
    }
    const ::ssize_t r = ::read(fd, out + done, n - done);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (r == 0) break;  // EOF
    done += static_cast<std::size_t>(r);
  }
  return done;
}

}  // namespace

ReadStatus read_frame_ex(int fd, std::vector<std::uint8_t>& payload,
                         const FrameOptions& options) {
  // The first byte may take forever — an idle connection is healthy. Once
  // it lands the frame has STARTED and the mid-frame deadline (when set)
  // covers everything up to the last payload byte: that is exactly the
  // window a slow-loris peer tries to stretch.
  std::uint8_t len_buf[4];
  std::size_t got = read_full_deadline(fd, len_buf, 1, nullptr, nullptr);
  if (got == 0) return ReadStatus::kEof;  // clean EOF at a frame boundary

  Clock::time_point deadline_tp;
  const Clock::time_point* deadline = nullptr;
  if (options.mid_frame_deadline_ms > 0) {
    deadline_tp = Clock::now() +
                  std::chrono::milliseconds(options.mid_frame_deadline_ms);
    deadline = &deadline_tp;
  }
  bool timed_out = false;
  got += read_full_deadline(fd, len_buf + 1, sizeof(len_buf) - 1, deadline,
                            &timed_out);
  if (timed_out) return ReadStatus::kTimeout;
  SPARKXD_REQUIRE(got == sizeof(len_buf), "truncated frame length prefix");
  std::uint32_t len = 0;
  std::memcpy(&len, len_buf, sizeof(len));
  SPARKXD_REQUIRE(len > 0 && len <= kMaxFrameBytes,
                  "frame length prefix out of bounds");
  SPARKXD_REQUIRE(!options.crc || len >= 5,
                  "CRC-framed payload too short for its trailer");
  payload.resize(len);
  const std::size_t body =
      read_full_deadline(fd, payload.data(), len, deadline, &timed_out);
  if (timed_out) return ReadStatus::kTimeout;
  SPARKXD_REQUIRE(body == len, "truncated frame payload");
  if (options.crc) {
    const std::size_t data_len = payload.size() - 4;
    std::uint32_t want = 0;
    std::memcpy(&want, payload.data() + data_len, 4);
    if (crc32(payload.data(), data_len) != want) return ReadStatus::kBadCrc;
    payload.resize(data_len);
  }
  return ReadStatus::kFrame;
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  // Plain v1 read: no CRC, no deadline — kTimeout/kBadCrc cannot happen.
  return read_frame_ex(fd, payload, FrameOptions{}) == ReadStatus::kFrame;
}

}  // namespace sparkxd::serve
