// Tests for the chaos layer: spec parsing, schedule determinism, digest
// parity under every injected fault mode (the core robustness claim — any
// number of torn/dripped/stalled/RST/corrupted frames leaves the id-sorted
// reply digest byte-identical to a clean run), slow-loris eviction, and
// drain-under-chaos (a mid-flood stop still answers every admitted request
// bit-for-bit).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "serve/artifact.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace sparkxd::serve {
namespace {

constexpr std::uint64_t kBaseSeed = 11;

// ------------------------------------------------------------------- spec

TEST(ChaosSpecTest, ParsesTheGrammar) {
  EXPECT_FALSE(ChaosSpec::parse("").any());
  EXPECT_FALSE(ChaosSpec::parse("none").any());

  const auto all = ChaosSpec::parse("all");
  EXPECT_DOUBLE_EQ(all.torn, ChaosSpec::kDefaultProb);
  EXPECT_DOUBLE_EQ(all.corrupt, ChaosSpec::kDefaultProb);

  const auto scaled = ChaosSpec::parse("all:0.25");
  EXPECT_DOUBLE_EQ(scaled.rst, 0.25);
  EXPECT_DOUBLE_EQ(scaled.drip, 0.25);

  const auto mixed = ChaosSpec::parse("torn:0.1,corrupt:0.5,stall");
  EXPECT_DOUBLE_EQ(mixed.torn, 0.1);
  EXPECT_DOUBLE_EQ(mixed.corrupt, 0.5);
  EXPECT_DOUBLE_EQ(mixed.stall, ChaosSpec::kDefaultProb);
  EXPECT_DOUBLE_EQ(mixed.rst, 0.0);
  EXPECT_TRUE(mixed.any());

  // Round trip through the canonical form.
  EXPECT_EQ(ChaosSpec::parse(mixed.to_string()).to_string(),
            mixed.to_string());
  EXPECT_EQ(ChaosSpec{}.to_string(), "none");
}

TEST(ChaosSpecTest, RejectsBadSpecs) {
  EXPECT_THROW((void)ChaosSpec::parse("bogus"), ContractViolation);
  EXPECT_THROW((void)ChaosSpec::parse("torn:1.5"), ContractViolation);
  EXPECT_THROW((void)ChaosSpec::parse("torn:-0.1"), ContractViolation);
  EXPECT_THROW((void)ChaosSpec::parse("torn:x"), ContractViolation);
  EXPECT_THROW((void)ChaosSpec::parse("torn:"), ContractViolation);
  EXPECT_THROW((void)ChaosSpec::parse("torn,,rst"), ContractViolation);
}

// --------------------------------------------------------------- schedule

TEST(ChaosScheduleTest, SameSeedSameSchedule) {
  // Two injectors with the same (spec, seed) must make identical decisions
  // frame for frame — observed through their counters over a discarding
  // peer. A different seed must eventually diverge.
  const auto spec = ChaosSpec::parse("all:0.3");
  const auto run = [&spec](std::uint64_t seed) {
    // /dev/null absorbs the bytes (send_bytes falls back to write() on
    // ENOTSOCK); an injected kill closes the fd, so "reconnect" by
    // reopening — the frame ordinal keeps counting across kills, exactly
    // like a real reconnecting client slot.
    ChaosConnection chaos(spec, seed);
    const auto payload = encode_queue_full(7);
    int fd = ::open("/dev/null", O_WRONLY);
    EXPECT_GE(fd, 0);
    for (int i = 0; i < 64; ++i) {
      if (fd < 0) {
        fd = ::open("/dev/null", O_WRONLY);
        EXPECT_GE(fd, 0);
      }
      (void)chaos.send_frame(fd, payload, false);
    }
    if (fd >= 0) ::close(fd);
    return chaos.counters();
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a.torn, b.torn);
  EXPECT_EQ(a.drip, b.drip);
  EXPECT_EQ(a.stall, b.stall);
  EXPECT_EQ(a.rst, b.rst);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_GT(a.total(), 0u);
  const bool diverged = a.torn != c.torn || a.drip != c.drip ||
                        a.stall != c.stall || a.rst != c.rst ||
                        a.corrupt != c.corrupt;
  EXPECT_TRUE(diverged) << "seed 43 replayed seed 42's schedule";
}

// ------------------------------------------------------------- end to end

/// Same one-artifact-per-suite setup as serve_test.cpp: the pipeline run
/// is the expensive part, every test only reads the result.
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.network.n_neurons = 20;
    cfg.network.timesteps = 30;
    cfg.network.seed = 5;
    cfg.train_samples = 80;
    cfg.test_samples = 40;
    cfg.baseline_epochs = 1;
    cfg.fault_training.ber_stages = {1e-5, 1e-3};
    cfg.voltages = {1.250, 1.025};
    cfg.seed = 5;
    core::ArtifactState state;
    (void)core::run_pipeline(cfg, &state);
    artifact_ = new ServingArtifact(
        make_artifact("serve-chaos-test", std::move(state)));
    pool_ = new data::Dataset(
        data::make_dataset(data::Task::kDigits, 16, kBaseSeed));
  }
  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
    delete pool_;
    pool_ = nullptr;
  }

  static ClassifyRequest request(std::size_t i) {
    ClassifyRequest req;
    req.id = i;
    req.seed = hash_combine(kBaseSeed, i);
    req.image = pool_->images[i % pool_->size()];
    return req;
  }

  static std::uint64_t serial_digest(std::size_t n) {
    Engine engine(*artifact_);
    std::vector<ClassifyReply> replies;
    replies.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      replies.push_back(engine.classify(request(i)));
    return digest_replies(replies);
  }

  /// A server hardened the way production would run: mid-frame read
  /// deadline tight enough to evict torn frames quickly but far above the
  /// injector's drip/stall pauses, plus a watchdog.
  static ServerConfig hardened_config() {
    ServerConfig config;
    config.workers = 2;
    config.read_deadline_ms = 250;
    config.watchdog_stall_ms = 10'000;
    return config;
  }

  /// One chaotic replay of `requests` against its own fresh hardened
  /// server. Safe to run from several threads at once: each call owns its
  /// server and client, and the suite artifact is read-only.
  static ReplayStats chaos_replay(std::size_t requests, const char* spec,
                                  bool crc, std::uint64_t chaos_seed) {
    Server server(*artifact_, hardened_config());
    server.start();
    ClientOptions options;
    options.requests = requests;
    options.connections = 2;
    options.window = 8;
    options.base_seed = kBaseSeed;
    options.crc = crc;
    options.chaos = ChaosSpec::parse(spec);
    options.chaos_seed = chaos_seed;
    const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
    server.request_stop();
    server.wait();
    return stats;
  }

  /// Runs `fn(i)` for i in [0, n) on n threads, joins them, then rethrows
  /// the first exception a call raised (so it fails the test instead of
  /// terminating the binary). The chaos replays spend nearly all their
  /// time in the injector's sleeps, so the cases overlap instead of adding
  /// up.
  template <typename Fn>
  static void run_concurrently(std::size_t n, Fn fn) {
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      threads.emplace_back([&, i] {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    for (auto& t : threads) t.join();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  static ServingArtifact* artifact_;
  static data::Dataset* pool_;
};

ServingArtifact* ServeChaosTest::artifact_ = nullptr;
data::Dataset* ServeChaosTest::pool_ = nullptr;

TEST_F(ServeChaosTest, DigestSurvivesEveryFaultMode) {
  // THE robustness claim of this layer: for every fault mode — and for all
  // of them at once, with CRC on and off where legal — the replay digest is
  // byte-identical to the clean serial digest. Failures cost retries and
  // reconnects, never data. The cases run concurrently, each against its
  // own server; the assertions run here after the join.
  constexpr std::size_t kRequests = 96;
  const std::uint64_t expected = serial_digest(kRequests);

  struct Case {
    const char* spec;
    bool crc;
  };
  const Case cases[] = {
      {"none", false},        {"none", true},
      {"torn:0.08", false},   {"drip:0.08", false},
      {"stall:0.08", false},  {"rst:0.08", false},
      {"corrupt:0.15", true}, {"all:0.04", true},
      {"torn:0.08,rst:0.08", false},
  };
  constexpr std::size_t kCases = std::size(cases);
  std::vector<ReplayStats> results(kCases);
  run_concurrently(kCases, [&](std::size_t k) {
    results[k] = chaos_replay(kRequests, cases[k].spec, cases[k].crc, 99);
  });

  for (std::size_t k = 0; k < kCases; ++k) {
    const Case& c = cases[k];
    const ReplayStats& stats = results[k];
    EXPECT_EQ(stats.replies, kRequests) << c.spec;
    EXPECT_EQ(stats.digest, expected)
        << c.spec << " (crc " << c.crc << "): " << stats.chaos.total()
        << " faults, " << stats.reconnects << " reconnects";
    if (ChaosSpec::parse(c.spec).any()) {
      EXPECT_GT(stats.chaos.total(), 0u)
          << c.spec << " injected nothing — raise the probability";
    }
  }
}

TEST_F(ServeChaosTest, ChaosReplayIsDeterministic) {
  // Same (chaos spec, chaos seed) twice against a fresh server each: the
  // digest is identical and faults fired both times. (Frame k's FATE is a
  // pure function of (spec, seed, k) — pinned by ChaosScheduleTest above —
  // but how many frames a slot ends up sending depends on retry timing, so
  // run-level counter totals may differ by a few; the payloads never do.)
  // The two runs are independent and run concurrently.
  constexpr std::size_t kRequests = 64;
  ReplayStats runs[2];
  run_concurrently(2, [&](std::size_t k) {
    runs[k] = chaos_replay(kRequests, "all:0.06", true, 7);
  });
  const auto& a = runs[0];
  const auto& b = runs[1];
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, serial_digest(kRequests));
  EXPECT_EQ(a.replies, kRequests);
  EXPECT_EQ(b.replies, kRequests);
  EXPECT_GT(a.chaos.total(), 0u);
  EXPECT_GT(b.chaos.total(), 0u);
}

TEST_F(ServeChaosTest, CorruptChaosWithoutCrcIsRejectedUpFront) {
  ClientOptions options;
  options.chaos = ChaosSpec::parse("corrupt:0.1");
  options.crc = false;
  EXPECT_THROW((void)replay("127.0.0.1", 1, *pool_, options),
               ContractViolation);
}

TEST_F(ServeChaosTest, SlowLorisConnectionIsEvicted) {
  ServerConfig config;
  config.read_deadline_ms = 50;
  Server server(*artifact_, config);
  server.start();

  // Start a frame and never finish it. The server must evict us shortly
  // after the deadline instead of holding the reader forever.
  const int fd = connect_to("127.0.0.1", server.port());
  const auto wire = frame_wire_bytes(encode_classify(request(0)), false);
  ASSERT_GT(wire.size(), 8u);
  ASSERT_TRUE(send_bytes(fd, wire.data(), 8));
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(fd, payload));  // eviction closes the stream
  ::close(fd);

  // The server is unharmed: a well-behaved client still gets served.
  ClientOptions options;
  options.requests = 4;
  options.base_seed = kBaseSeed;
  EXPECT_EQ(replay("127.0.0.1", server.port(), *pool_, options).replies, 4u);

  server.request_stop();
  server.wait();
  EXPECT_GE(server.stats().evicted_slow, 1u);
}

TEST_F(ServeChaosTest, DrainUnderChaosAnswersEveryAdmittedRequest) {
  // SIGTERM-equivalent mid-flood with chaos active: request_stop() lands
  // while a chaotic replay is in flight. Every reply that does come back
  // must be bit-equal to the serial engine's (verified via per-id replies
  // below), the server must drain and join cleanly, and the client — with
  // allow_partial — must report rather than hang or crash.
  constexpr std::size_t kRequests = 400;
  Server server(*artifact_, hardened_config());
  server.start();

  ReplayStats stats;
  std::thread replayer([&] {
    ClientOptions options;
    options.requests = kRequests;
    options.connections = 2;
    options.window = 8;
    options.base_seed = kBaseSeed;
    options.crc = true;
    options.chaos = ChaosSpec::parse("all:0.05");
    options.chaos_seed = 3;
    options.allow_partial = true;  // the server IS going away mid-run
    options.retry.max_reconnects = 3;
    stats = replay("127.0.0.1", server.port(), *pool_, options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.request_stop();
  server.wait();  // must return: every admitted request answered, clean join
  replayer.join();

  // Whatever portion completed before the drain is exact. (The digest of a
  // partial id set cannot be compared against the full-run digest, so
  // exactness under chaos is pinned by DigestSurvivesEveryFaultMode; here
  // the claims are clean drain + no lost-or-duplicated ids among replies.)
  EXPECT_LE(stats.replies, kRequests);
  const auto server_stats = server.stats();
  EXPECT_GE(server_stats.served, stats.replies)
      << "client recorded replies the server never served";

  // Slots either finished or reported themselves incomplete — never hung.
  EXPECT_LE(stats.incomplete_conns, 2u);
  if (stats.replies < kRequests) {
    EXPECT_GE(stats.incomplete_conns, 1u);
  }
}

TEST_F(ServeChaosTest, EvictionWithPendingReplyStillAnswersAdmittedJob) {
  // A connection that gets a request admitted and is then evicted for
  // slow-lorising its NEXT frame must still receive (or at least not
  // corrupt) the pending reply path: the server writes the reply to the
  // (shut-down) socket and moves on. The observable contract: the server
  // neither crashes nor leaks the job, and a healthy client is unaffected.
  constexpr std::size_t kBacklog = 2000;
  ServerConfig config;
  config.read_deadline_ms = 40;
  Server server(*artifact_, config);
  server.start();

  // A backlog queued from a second connection ahead of request 0 keeps the
  // one worker busy, so request 0's reply is most likely still pending
  // when the eviction lands. The stats request is answered inline by that
  // connection's reader once every frame before it has been admitted.
  const int backlog_fd = connect_to("127.0.0.1", server.port());
  std::thread backlog_writer([&] {
    for (std::size_t i = 0; i < kBacklog; ++i)
      ASSERT_TRUE(write_frame(backlog_fd, encode_classify(request(i))));
    ASSERT_TRUE(write_frame(backlog_fd, encode_stats_request()));
  });
  std::vector<std::uint8_t> payload;
  std::size_t backlog_replies = 0;
  bool admitted = false;
  while (!admitted && read_frame(backlog_fd, payload)) {
    admitted = frame_type(payload) == MsgType::kStatsReply;
    if (!admitted) ++backlog_replies;
  }
  backlog_writer.join();
  ASSERT_TRUE(admitted);

  const int fd = connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(write_frame(fd, encode_classify(request(0))));
  const auto wire = frame_wire_bytes(encode_classify(request(1)), false);
  ASSERT_TRUE(send_bytes(fd, wire.data(), 5));  // start, never finish
  // We may or may not see the reply before the eviction closes the stream;
  // both are legal. What must not happen is a hang or a server crash. Read
  // until the stream ends so the eviction has landed before we close.
  try {
    while (read_frame(fd, payload)) {
    }
  } catch (const ContractViolation&) {
  }
  ::close(fd);

  for (; backlog_replies < kBacklog; ++backlog_replies)
    ASSERT_TRUE(read_frame(backlog_fd, payload));
  ::close(backlog_fd);

  ClientOptions options;
  options.requests = 8;
  options.base_seed = kBaseSeed;
  EXPECT_EQ(replay("127.0.0.1", server.port(), *pool_, options).replies, 8u);
  server.request_stop();
  server.wait();
  EXPECT_GE(server.stats().evicted_slow, 1u);
}

}  // namespace
}  // namespace sparkxd::serve
