#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace sparkxd::serve {

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SPARKXD_REQUIRE(fd >= 0, "cannot create a client socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    SPARKXD_REQUIRE(false, "client host must be a numeric IPv4 address");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    SPARKXD_REQUIRE(false, "cannot connect to the serving port");
  }
  // Requests are small frames; Nagle would hold a pipelined one back
  // until the server ACKs the previous one.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBaseBackoffUs = 200;    // first backoff step
constexpr std::uint64_t kMaxBackoffUs = 50'000;  // exponential ceiling

/// What one connection thread brings home.
struct ConnResult {
  std::vector<ClassifyReply> replies;
  std::vector<double> latency_us;
  std::uint64_t retries = 0;
  std::uint64_t connects = 0;  ///< successful connections (reconnects + 1)
  std::uint64_t duplicates = 0;
  ChaosCounters chaos;
  bool server_gone = false;
};

/// One connection slot of the replay: drives the requests with
/// index % stride == offset, surviving rejections, resets, evictions, and
/// injected chaos via backoff + reconnect + resend + id-dedupe.
///
/// Pipelining vs chaos: every fully delivered frame is eventually answered
/// by the server with SOMETHING (kReply / kQueueFull / kDeadlineExceeded /
/// kBadFrame), but an injected connection kill strands the answers still
/// in flight — those ids must be resent on the next connection. If the
/// slot blasted its whole window between reads, a kill-per-frame
/// probability p would let a full burst survive only with probability
/// (1-p)^window, and at large windows the slot would resend forever
/// without ever harvesting a reply. So while chaos is active the slot
/// caps its uncommitted pipeline at kChaosPipeline frames: a kill can
/// strand at most that many answers, and reads interleave with sends
/// often enough to guarantee forward progress at any window size.
/// Without chaos nothing kills connections at random and the full window
/// pipelines as before.
class ConnectionDriver {
 public:
  static constexpr std::size_t kChaosPipeline = 4;

  ConnectionDriver(const std::string& host, std::uint16_t port,
                   const data::Dataset& pool, const ClientOptions& options,
                   std::size_t offset, ConnResult& out)
      : host_(host),
        port_(port),
        pool_(pool),
        options_(options),
        out_(out),
        chaos_(options.chaos, hash_combine(options.chaos_seed, offset)),
        // Jitter desynchronizes retry storms across slots; it shapes
        // timing only, never payloads, so the digest cannot see it.
        jitter_(hash_combine(options.base_seed ^ 0xC4A05EEDULL, offset)),
        pipeline_limit_(options.chaos.any()
                            ? std::min(options.window, kChaosPipeline)
                            : options.window) {
    for (std::size_t i = offset; i < options.requests;
         i += options.connections)
      my_ids_.push_back(i);
  }

  void run() {
    while (answered_.size() < my_ids_.size()) {
      if (fd_ < 0 && !reconnect()) {
        out_.server_gone = true;
        break;
      }
      fill_window();
      if (fd_ < 0) continue;  // a send died; reconnect next round
      if (outstanding_ == 0) {
        // Live connection with nothing in flight and nothing sendable yet
        // unanswered ids remain: resync by rebuilding the resend queue.
        drop_connection();
        continue;
      }
      read_one();
    }
    if (fd_ >= 0) ::close(fd_);
    out_.chaos = chaos_.counters();
  }

 private:
  /// Request i is a pure function of i, so any rejection or loss is
  /// answered by rebuilding and re-sending the exact same frame.
  std::vector<std::uint8_t> encode_request(std::uint64_t id) const {
    ClassifyRequest request;
    request.id = id;
    request.seed = hash_combine(options_.base_seed, id);
    request.image = pool_.images[id % pool_.size()];
    return encode_classify(request);
  }

  void backoff(std::size_t attempt) {
    const std::uint64_t shift = std::min<std::size_t>(attempt, 8);
    const double ceiling = std::min<double>(
        static_cast<double>(kMaxBackoffUs),
        static_cast<double>(kBaseBackoffUs) *
            static_cast<double>(1ull << shift));
    const double jittered = ceiling * (0.5 + 0.5 * jitter_.uniform());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::uint64_t>(jittered)));
  }

  /// Sends one classify (through the chaos injector when active). A fully
  /// delivered frame becomes outstanding: the server will answer it. On a
  /// dead connection fd_ becomes -1 and the id stays in unanswered_ for
  /// the reconnect path to queue for resend.
  void send_request(std::uint64_t id) {
    const auto frame = encode_request(id);
    if (first_sent_.find(id) == first_sent_.end())
      first_sent_.emplace(id, Clock::now());
    unanswered_.insert(id);
    bool alive;
    if (chaos_.spec().any()) {
      alive = chaos_.send_frame(fd_, frame, crc_live_);
    } else {
      alive = write_frame(fd_, frame, crc_live_);
      if (!alive) {
        ::close(fd_);
        fd_ = -1;
      }
    }
    if (!alive) {
      fd_ = -1;
      return;
    }
    ++outstanding_;
  }

  /// (Re-)establishes the connection, re-handshakes, and queues every
  /// sent-but-unanswered id for resend — the request may have vanished
  /// with a torn frame or may have been admitted and answered into the
  /// closed socket; replies are deduped by id, so the double-delivery
  /// race resolves to exactly one recorded reply either way. Returns
  /// false when the retry budget is gone.
  bool reconnect() {
    std::size_t failures = 0;
    while (fd_ < 0) {
      if (failures > options_.retry.max_reconnects) return false;
      if (failures > 0 || out_.connects > 0) backoff(failures);
      int fd = -1;
      try {
        fd = connect_to(host_, port_);
      } catch (const ContractViolation&) {
        ++failures;
        continue;
      }
      if (options_.crc && !handshake(fd)) {
        ++failures;
        continue;
      }
      fd_ = fd;
      crc_live_ = options_.crc;
      ++out_.connects;
    }
    outstanding_ = 0;  // in-flight answers died with the old connection
    resend_.assign(unanswered_.begin(), unanswered_.end());
    std::sort(resend_.begin(), resend_.end(), std::greater<>());
    out_.retries += resend_.size();
    return true;
  }

  /// kHello/kHelloAck exchange in plain framing. Closes fd on failure.
  bool handshake(int& fd) {
    const Hello hello{kProtocolV2, true};
    std::vector<std::uint8_t> payload;
    try {
      if (write_frame(fd, encode_hello(hello), false) &&
          read_frame(fd, payload) && decode_hello_ack(payload) == hello)
        return true;
    } catch (const ContractViolation&) {
    }
    ::close(fd);
    fd = -1;
    return false;
  }

  /// Sends queued resends first (lowest id first), then fresh requests,
  /// until the pipeline cap is reached. Under chaos the cap is small (see
  /// the class comment), so the caller reads between refills.
  void fill_window() {
    while (fd_ >= 0 && outstanding_ < pipeline_limit_ &&
           (!resend_.empty() || next_ < my_ids_.size())) {
      std::uint64_t id;
      if (!resend_.empty()) {
        id = resend_.back();
        resend_.pop_back();
      } else {
        id = my_ids_[next_++];
      }
      send_request(id);
    }
  }

  void drop_connection() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void record_reply(const ClassifyReply& reply) {
    if (!answered_.insert(reply.id).second) {
      ++out_.duplicates;  // reconnect double-delivery race: already counted
      return;
    }
    unanswered_.erase(reply.id);
    const auto sent = first_sent_.find(reply.id);
    SPARKXD_REQUIRE(sent != first_sent_.end(),
                    "server replied to a request this connection never sent");
    out_.latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - sent->second)
            .count());
    out_.replies.push_back(reply);
    consecutive_rejects_ = 0;
  }

  /// Reads and dispatches one frame; any read failure or kBadFrame demotes
  /// to a reconnect (the server closes after sending kBadFrame).
  void read_one() {
    std::vector<std::uint8_t> payload;
    ReadStatus status;
    try {
      status = read_frame_ex(fd_, payload, FrameOptions{crc_live_, 0});
    } catch (const ContractViolation&) {
      drop_connection();
      return;
    }
    if (status != ReadStatus::kFrame) {
      drop_connection();  // EOF (reset/eviction/drain) or garbled stream
      return;
    }
    if (outstanding_ > 0) --outstanding_;
    try {
      switch (frame_type(payload)) {
        case MsgType::kReply:
          record_reply(decode_reply(payload));
          return;
        case MsgType::kQueueFull:
        case MsgType::kDeadlineExceeded: {
          // Flow control, not data loss: back off (exponentially in the
          // number of consecutive rejections) and re-send. A rejection
          // bouncing a resent duplicate whose original was already
          // answered needs nothing.
          const std::uint64_t id =
              frame_type(payload) == MsgType::kQueueFull
                  ? decode_queue_full(payload)
                  : decode_deadline_exceeded(payload);
          if (unanswered_.count(id) == 0) return;
          ++out_.retries;
          backoff(++consecutive_rejects_);
          send_request(id);
          return;
        }
        case MsgType::kBadFrame:
          drop_connection();  // stream desynced; reconnect resends
          return;
        default:
          SPARKXD_REQUIRE(false, "unexpected server-to-client message type");
      }
    } catch (const ContractViolation&) {
      drop_connection();
    }
  }

  const std::string& host_;
  const std::uint16_t port_;
  const data::Dataset& pool_;
  const ClientOptions& options_;
  ConnResult& out_;
  ChaosConnection chaos_;
  Rng jitter_;
  const std::size_t pipeline_limit_;

  std::vector<std::uint64_t> my_ids_;
  std::size_t next_ = 0;  ///< index into my_ids_ of the next unsent request
  int fd_ = -1;
  bool crc_live_ = false;
  std::unordered_map<std::uint64_t, Clock::time_point> first_sent_;
  std::unordered_set<std::uint64_t> unanswered_;  ///< sent, no reply yet
  std::unordered_set<std::uint64_t> answered_;    ///< id-level dedupe
  std::vector<std::uint64_t> resend_;  ///< ids to resend, highest id last
  std::size_t outstanding_ = 0;  ///< delivered frames awaiting a response
  std::size_t consecutive_rejects_ = 0;
};

}  // namespace

ReplayStats replay(const std::string& host, std::uint16_t port,
                   const data::Dataset& pool, const ClientOptions& options) {
  SPARKXD_REQUIRE(options.requests >= 1, "replay needs at least one request");
  SPARKXD_REQUIRE(options.connections >= 1 && options.window >= 1,
                  "replay needs at least one connection and a window >= 1");
  SPARKXD_REQUIRE(pool.size() > 0, "replay needs a non-empty image pool");
  options.chaos.validate();
  SPARKXD_REQUIRE(options.chaos.corrupt == 0.0 || options.crc,
                  "corrupt chaos requires CRC framing (--crc): without the "
                  "check the server would decode corrupted payloads");

  const std::size_t n_conns = std::min(options.connections, options.requests);
  std::vector<ConnResult> results(n_conns);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(n_conns);
    for (std::size_t c = 0; c < n_conns; ++c)
      threads.emplace_back([&, c] {
        ClientOptions opt = options;
        opt.connections = n_conns;
        ConnectionDriver(host, port, pool, opt, c, results[c]).run();
      });
    for (auto& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  std::vector<ClassifyReply> replies;
  replies.reserve(options.requests);
  ReplayStats stats;
  for (auto& r : results) {
    if (r.server_gone) {
      ++stats.incomplete_conns;
      SPARKXD_REQUIRE(options.allow_partial,
                      "server became unreachable before a replay connection "
                      "finished (retry budget exhausted)");
    }
    replies.insert(replies.end(), r.replies.begin(), r.replies.end());
    stats.retries += r.retries;
    stats.reconnects += r.connects > 0 ? r.connects - 1 : 0;
    stats.duplicates += r.duplicates;
    stats.chaos += r.chaos;
    stats.latency_us.insert(stats.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
  }
  stats.replies = replies.size();
  stats.digest = digest_replies(replies);
  stats.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return stats;
}

ServerStats fetch_stats(const std::string& host, std::uint16_t port) {
  const int fd = connect_to(host, port);
  std::vector<std::uint8_t> payload;
  bool ok = write_frame(fd, encode_stats_request()) &&
            read_frame(fd, payload);
  ServerStats stats;
  if (ok) stats = decode_stats_reply(payload);
  ::close(fd);
  SPARKXD_REQUIRE(ok, "server closed the stats connection without replying");
  return stats;
}

std::uint64_t digest_replies(std::vector<ClassifyReply>& replies) {
  std::sort(replies.begin(), replies.end(),
            [](const ClassifyReply& a, const ClassifyReply& b) {
              return a.id < b.id;
            });
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](std::uint64_t v, std::size_t n_bytes) {
    for (std::size_t i = 0; i < n_bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;  // FNV-1a 64 prime
    }
  };
  for (const auto& r : replies) {
    mix(r.id, 8);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.label)), 4);
    mix(r.spikes, 4);
    mix(r.flips, 4);
  }
  return h;
}

}  // namespace sparkxd::serve
