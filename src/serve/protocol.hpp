#pragma once
// Length-prefixed TCP wire protocol of the serving layer.
//
// Framing: every message is  [u32 LE payload length][payload] ; the payload
// begins with a one-byte message type followed by fixed-width little-endian
// fields (the same raw-POD convention model_io uses). Version 1 is exactly
// that; version 2 (negotiated per connection via kHello/kHelloAck) appends a
// CRC32 trailer to every frame so bit-corrupted payloads are rejected with
// kBadFrame instead of being decoded into an engine.
//
//   kClassify   u64 id, u64 seed, u32 n_pixels, f32 pixels[n_pixels]
//   kReply      u64 id, i32 label, u32 spikes, u32 flips
//   kStats      (empty) — server answers with kStatsReply on the same
//               connection, bypassing the admission queue
//   kStatsReply u64 served, u64 batches, u64 max_queue_depth,
//               u64 generation, u64 wedged_events, u64 deadline_exceeded,
//               u64 bad_frames, u64 evicted_slow, u64 rejected_conns
//   kQueueFull  u64 id — overload backpressure: the admission queue was at
//               its bound when this classify request arrived; the request
//               was NOT processed (and never will be), the connection stays
//               open, and the client may retry
//   kDeadlineExceeded  u64 id — the request was admitted but waited in the
//               queue past the server's per-request deadline; it was NOT
//               classified. Same retry semantics as kQueueFull.
//   kBadFrame   (empty) — a CRC-checked frame failed verification. The
//               stream can no longer be trusted to be in sync, so the
//               server closes the connection right after sending this; the
//               client must reconnect and re-send its unanswered requests.
//   kHello      u32 version, u8 flags — client's first frame opting into a
//               protocol version. flags bit0 requests CRC framing (v2).
//   kHelloAck   u32 version, u8 flags — server's acceptance. The hello and
//               the ack are always plain (v1) frames; every frame AFTER the
//               ack travels in the negotiated mode, in both directions.
//
// Encode/decode work on byte vectors (unit-testable without sockets);
// read_frame/write_frame do the blocking fd I/O with full-length loops.

#include <cstdint>
#include <vector>

#include "serve/engine.hpp"

namespace sparkxd::serve {

enum class MsgType : std::uint8_t {
  kClassify = 1,
  kReply = 2,
  kStats = 3,
  kStatsReply = 4,
  kQueueFull = 5,
  kDeadlineExceeded = 6,
  kBadFrame = 7,
  kHello = 8,
  kHelloAck = 9,
};

inline constexpr std::uint32_t kProtocolV1 = 1;  ///< plain frames
inline constexpr std::uint32_t kProtocolV2 = 2;  ///< CRC32 trailer per frame
inline constexpr std::uint8_t kHelloFlagCrc = 0x01;

/// Upper bound on a frame payload; a length prefix beyond it is treated as
/// a corrupt/hostile stream and read_frame throws.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

/// Server-side counters reported through kStatsReply.
struct ServerStats {
  std::uint64_t served = 0;   ///< replies written
  /// Jobs run, queued or served inline by a connection's reader (kept
  /// under its old name because perfbench/ reads `.batches`).
  std::uint64_t batches = 0;
  std::uint64_t max_queue_depth = 0;  ///< high-water admission-queue depth
  std::uint64_t generation = 1;       ///< artifact generation (bumped by reload)
  /// Times the watchdog observed a slot stuck on one request past the
  /// stall bound. A nonzero value is the "fail loudly" signal — the server
  /// keeps running, but something is wedging the engines.
  std::uint64_t wedged_events = 0;
  std::uint64_t deadline_exceeded = 0;  ///< requests answered kDeadlineExceeded
  std::uint64_t bad_frames = 0;         ///< CRC failures answered kBadFrame
  std::uint64_t evicted_slow = 0;       ///< connections evicted mid-frame (slow-loris)
  std::uint64_t rejected_conns = 0;     ///< accepts closed at the --max-conns cap

  friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

/// kHello / kHelloAck payload.
struct Hello {
  std::uint32_t version = kProtocolV1;
  bool crc = false;

  friend bool operator==(const Hello&, const Hello&) = default;
};

/// The type byte of a decoded payload; throws on an empty payload.
[[nodiscard]] MsgType frame_type(const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_classify(
    const ClassifyRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_reply(
    const ClassifyReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request();
[[nodiscard]] std::vector<std::uint8_t> encode_stats_reply(
    const ServerStats& stats);
[[nodiscard]] std::vector<std::uint8_t> encode_queue_full(std::uint64_t id);
[[nodiscard]] std::vector<std::uint8_t> encode_deadline_exceeded(
    std::uint64_t id);
[[nodiscard]] std::vector<std::uint8_t> encode_bad_frame();
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ack(const Hello& hello);

/// Decoders throw ContractViolation on a wrong type byte or a malformed /
/// short payload.
[[nodiscard]] ClassifyRequest decode_classify(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] ClassifyReply decode_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] ServerStats decode_stats_reply(
    const std::vector<std::uint8_t>& payload);
/// Returns the rejected request's id.
[[nodiscard]] std::uint64_t decode_queue_full(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::uint64_t decode_deadline_exceeded(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] Hello decode_hello(const std::vector<std::uint8_t>& payload);
[[nodiscard]] Hello decode_hello_ack(const std::vector<std::uint8_t>& payload);

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `n` bytes.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// How one frame read completed (read_frame_ex).
enum class ReadStatus {
  kFrame,    ///< a complete (and, in CRC mode, verified) frame landed
  kEof,      ///< clean EOF at a frame boundary
  kTimeout,  ///< a frame started but stalled past the mid-frame deadline
  kBadCrc,   ///< CRC mode only: the frame arrived but failed verification
};

/// Per-connection framing options.
struct FrameOptions {
  /// v2 framing: every frame carries a 4-byte CRC32 trailer (inside the
  /// length prefix); read verifies and strips it, write appends it.
  bool crc = false;
  /// Slow-loris guard: once a frame's FIRST byte has arrived, the rest of
  /// the frame must land within this many milliseconds or the read returns
  /// kTimeout. 0 disables the deadline. A connection idle at a frame
  /// boundary never times out — only a torn/dripped frame does.
  std::uint64_t mid_frame_deadline_ms = 0;
};

/// The exact bytes write_frame puts on the wire for `payload`: length
/// prefix + payload [+ CRC32 trailer in crc mode]. Exposed so the chaos
/// injector (serve/chaos.hpp) can tear, drip, and corrupt real frames.
[[nodiscard]] std::vector<std::uint8_t> frame_wire_bytes(
    const std::vector<std::uint8_t>& payload, bool crc);

/// Writes raw bytes to `fd`, looping until all are out (EINTR-safe,
/// MSG_NOSIGNAL on sockets). Returns false when the peer is gone.
bool send_bytes(int fd, const std::uint8_t* data, std::size_t n);

/// Writes one frame (length prefix + payload [+ CRC32 in crc mode]) to
/// `fd`, looping until all bytes are out. Returns false when the peer is
/// gone (EPIPE/ECONNRESET); throws on malformed use (payload too large).
bool write_frame(int fd, const std::vector<std::uint8_t>& payload,
                 bool crc = false);

/// Reads one frame from `fd` into `payload`, looping until complete.
/// Returns false on clean EOF at a frame boundary; throws ContractViolation
/// on a truncated frame or an oversized length prefix.
bool read_frame(int fd, std::vector<std::uint8_t>& payload);

/// Deadline- and CRC-aware frame read. kFrame fills `payload` (CRC trailer
/// already stripped in crc mode). Throws ContractViolation on a truncated
/// frame (EOF mid-frame), an out-of-bounds length prefix, or a CRC-mode
/// frame too short to carry its trailer.
[[nodiscard]] ReadStatus read_frame_ex(int fd,
                                       std::vector<std::uint8_t>& payload,
                                       const FrameOptions& options);

}  // namespace sparkxd::serve
