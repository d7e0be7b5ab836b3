#pragma once
// Client side of the serving protocol: a deterministic replay load
// generator plus small helpers (connect, stats fetch, reply digest).
//
// replay() opens N connections, each driven by its own thread with a
// windowed pipeline (up to `window` requests in flight per connection).
// Request i carries id=i, seed=hash_combine(base_seed, i), and image
// pool[i % pool.size()]; connection c sends the requests with i % N == c.
//
// Robustness: each connection slot runs a retry policy that makes the
// replay immune to any number of injected or real failures —
//   * kQueueFull / kDeadlineExceeded  -> jittered exponential backoff,
//     then re-send the same request (it is a pure function of its id);
//   * connection loss (RST, eviction, kBadFrame, EOF) -> backoff,
//     reconnect, re-handshake, and re-send every sent-but-unanswered id;
//   * replies are deduped by id, so a request that was answered AND
//     re-sent (a reconnect race) still lands exactly once.
// Because every reply is a pure function of (artifact, request) — see
// engine.hpp — the id-sorted reply digest is identical no matter how the
// server batches, how many workers it runs, how the replies interleave,
// or how many faults the path injected; that is exactly what the
// serve-smoke golden and the chaos tests pin.
//
// Chaos: when options.chaos has any active mode, each connection slot
// funnels its classify sends through a serve::ChaosConnection seeded
// hash_combine(chaos_seed, slot) — the deterministic network-fault
// injector the retry policy is proven against (see chaos.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace sparkxd::serve {

/// Reconnect budget for the replay client.
struct RetryPolicy {
  /// Consecutive failed reconnect attempts per connection slot before the
  /// slot declares the server gone.
  std::size_t max_reconnects = 64;
};

struct ClientOptions {
  std::size_t requests = 1000;
  std::size_t connections = 1;
  std::size_t window = 64;  ///< max in-flight requests per connection
  std::uint64_t base_seed = 7;
  /// Negotiate protocol v2 (CRC32-framed) via kHello on every connection.
  bool crc = false;
  /// Network-fault injection on this client's own sends (see chaos.hpp).
  /// A nonzero `corrupt` probability requires crc — without the CRC check
  /// the server would decode corrupted payloads instead of rejecting them.
  ChaosSpec chaos;
  std::uint64_t chaos_seed = 0;
  RetryPolicy retry;
  /// When true, a slot that exhausts its reconnect budget (e.g. the server
  /// is draining) reports partial results instead of making replay()
  /// throw. Replies received remain exact.
  bool allow_partial = false;
};

struct ReplayStats {
  std::uint64_t replies = 0;
  std::uint64_t digest = 0;   ///< id-sorted FNV-1a over all replies
  std::uint64_t wall_ns = 0;  ///< first send to last reply
  /// Re-sends of individual requests (kQueueFull / kDeadlineExceeded
  /// rejections plus unanswered ids re-sent after a reconnect). Timing-
  /// dependent (NOT part of the digest): every request still ends in
  /// exactly one recorded reply, so the digest stays replayable bit for
  /// bit.
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;  ///< successful re-connections after a loss
  std::uint64_t duplicates = 0;  ///< replies dropped by id-level dedupe
  ChaosCounters chaos;           ///< faults the injector actually fired
  /// Connection slots that gave up before answering all their ids (only
  /// possible with allow_partial; otherwise replay() throws).
  std::size_t incomplete_conns = 0;
  /// One entry per reply: first-send-to-reply microseconds (unsorted);
  /// retried requests include their rejected round trips and backoff.
  std::vector<double> latency_us;
};

/// Blocking TCP connect to host:port with TCP_NODELAY set; throws
/// ContractViolation on failure.
[[nodiscard]] int connect_to(const std::string& host, std::uint16_t port);

/// Drives `options.requests` classify requests from the image pool and
/// collects every reply. Throws if a connection slot exhausts its retry
/// budget (unless options.allow_partial).
[[nodiscard]] ReplayStats replay(const std::string& host, std::uint16_t port,
                                 const data::Dataset& pool,
                                 const ClientOptions& options);

/// Fetches the server counters over a fresh (plain v1) connection.
[[nodiscard]] ServerStats fetch_stats(const std::string& host,
                                      std::uint16_t port);

/// FNV-1a 64 over (id, label, spikes, flips) of the replies in ascending-id
/// order (the input is sorted in place). Concurrency-order independent.
///
/// Latency percentiles: use sparkxd::percentile (common/stats.hpp) — the one
/// shared implementation; an empty sample is a contract violation, never 0.
[[nodiscard]] std::uint64_t digest_replies(std::vector<ClassifyReply>& replies);

}  // namespace sparkxd::serve
