// Tests for the serving layer: artifact container round trips, engine
// determinism, cross-thread artifact sharing, and the server end to end
// (digest parity with a serial engine across batching configurations,
// graceful drain accounting).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "serve/artifact.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "snn/model_io.hpp"

namespace sparkxd::serve {
namespace {

constexpr std::uint64_t kBaseSeed = 11;

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.good()) << path;
  std::vector<char> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// One artifact for the whole suite: a real (tiny) pipeline run takes a few
/// seconds, and every test here reads the artifact without mutating it.
class ServeTest : public ::testing::Test {
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
        make_artifact("serve-test", std::move(state)));
    pool_ = new data::Dataset(
        data::make_dataset(data::Task::kDigits, 16, kBaseSeed));
  }
  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
    delete pool_;
    pool_ = nullptr;
  }

  /// The replay client's request construction, mirrored exactly (id = i,
  /// seed = hash_combine(base, i), image = pool[i % pool]).
  static ClassifyRequest request(std::size_t i) {
    ClassifyRequest req;
    req.id = i;
    req.seed = hash_combine(kBaseSeed, i);
    req.image = pool_->images[i % pool_->size()];
    return req;
  }

  static std::vector<ClassifyReply> serial_replies(
      const ServingArtifact& artifact, std::size_t n) {
    Engine engine(artifact);
    std::vector<ClassifyReply> replies;
    replies.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      replies.push_back(engine.classify(request(i)));
    return replies;
  }

  static ServingArtifact* artifact_;
  static data::Dataset* pool_;
};

ServingArtifact* ServeTest::artifact_ = nullptr;
data::Dataset* ServeTest::pool_ = nullptr;

// ---------------------------------------------------------------- artifact

TEST_F(ServeTest, ArtifactSaveLoadSaveIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "serve_test.sxda";
  const std::string path2 = path + ".resaved";
  save_artifact(*artifact_, path);
  const auto loaded = load_artifact(path);
  save_artifact(loaded, path2);
  EXPECT_EQ(file_bytes(path), file_bytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST_F(ServeTest, ArtifactLoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "serve_test_bad.sxda";
  EXPECT_THROW((void)load_artifact("/nonexistent/dir/a.sxda"),
               ContractViolation);
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTANARTIFACT_____________________";
  }
  EXPECT_THROW((void)load_artifact(path), ContractViolation);
  // A truncated real artifact must throw, never return a partial object.
  save_artifact(*artifact_, path);
  const auto bytes = file_bytes(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW((void)load_artifact(path), ContractViolation);

  // Crafted length fields of layer 0. Offsets: magic 4 + version 4 +
  // scenario (u64 length + chars) + v_supply 8 + module_ber 8 + clip 4, the
  // embedded model, the u64 layer count, then ber_th 8 and the placement
  // (u64 count + 28 B per chunk); the frozen table follows with ber/p0/p1
  // 24 + flag 1, then the u64 payload bytes and the u64 entry count.
  const auto& layer = artifact_->layers[0];
  std::ostringstream model_bytes;
  snn::save_model(artifact_->model, static_cast<std::ostream&>(model_bytes));
  const std::size_t placement_at = 36 + artifact_->scenario.size() +
                                   model_bytes.str().size() + 8 + 8;
  const std::size_t payload_at = placement_at + 8 +
                                 28 * layer.placement.size() + 25;
  const std::size_t entries_at = payload_at + 8;
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  // The offsets land on the stored counts.
  ASSERT_EQ(u64_at(placement_at), layer.placement.size());
  ASSERT_EQ(u64_at(payload_at), layer.frozen.payload_bytes());
  ASSERT_EQ(u64_at(entries_at), layer.frozen.entries().size());
  const std::uint64_t n_weights =
      artifact_->model.net.config().layer_weight_count(0);
  const auto expect_rejected = [&](std::size_t off, std::uint64_t value) {
    auto crafted = bytes;
    std::memcpy(crafted.data() + off, &value, sizeof(value));
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(crafted.data(), static_cast<std::streamsize>(crafted.size()));
    }
    EXPECT_THROW((void)load_artifact(path), ContractViolation)
        << "offset " << off << " value " << value;
  };
  // Each count is bounded by the layer's weight count before the loader
  // allocates: a 2^31-entry placement or frozen table would otherwise
  // request tens of GiB.
  expect_rejected(placement_at, std::uint64_t{1} << 31);
  expect_rejected(placement_at, n_weights + 1);
  expect_rejected(payload_at, n_weights * 4 + 4);
  expect_rejected(payload_at, std::uint64_t{1} << 40);
  expect_rejected(entries_at, std::uint64_t{1} << 31);
  expect_rejected(entries_at, n_weights * 4 * 8 + 1);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ engine

TEST_F(ServeTest, EngineIsDeterministicAndStateless) {
  Engine engine(*artifact_);
  const auto first = serial_replies(*artifact_, 24);
  // Replaying the same requests in a scrambled order, interleaved with
  // other requests, must reproduce every reply bit for bit — classify()
  // restores the scratch weights after each call.
  for (const std::size_t i : {17u, 3u, 3u, 23u, 0u, 11u, 17u}) {
    const auto again = engine.classify(request(i));
    EXPECT_EQ(again, first[i]) << "request " << i;
  }
  // Sanity: the workload is non-trivial (faults actually flip bits, spikes
  // actually fire somewhere in the stream).
  std::uint64_t total_flips = 0, total_spikes = 0;
  for (const auto& r : first) {
    total_flips += r.flips;
    total_spikes += r.spikes;
  }
  EXPECT_GT(total_flips, 0u);
  EXPECT_GT(total_spikes, 0u);
}

TEST_F(ServeTest, LoadedArtifactRepliesMatchOriginal) {
  const std::string path = ::testing::TempDir() + "serve_test_load.sxda";
  save_artifact(*artifact_, path);
  const auto loaded = load_artifact(path);
  std::remove(path.c_str());
  EXPECT_EQ(serial_replies(loaded, 16), serial_replies(*artifact_, 16));
}

// Satellite: N threads, each with its own Engine over the SAME artifact
// object, classify the same request list concurrently; every thread's
// replies must be bit-equal to the single-threaded run (the artifact is
// genuinely read-only under concurrent injection-table reads).
TEST_F(ServeTest, SharedArtifactAcrossThreadsIsBitEqual) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequests = 12;
  const auto expected = serial_replies(*artifact_, kRequests);
  std::vector<std::vector<ClassifyReply>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([t, &per_thread] {
        per_thread[t] = serial_replies(*artifact_, kRequests);
      });
    for (auto& th : threads) th.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(per_thread[t], expected) << "thread " << t;
}

// ------------------------------------------------------------------ server

TEST_F(ServeTest, ServerDigestMatchesSerialAcrossConfigs) {
  constexpr std::size_t kRequests = 80;
  auto expected = serial_replies(*artifact_, kRequests);
  const std::uint64_t expected_digest = digest_replies(expected);

  struct Config {
    std::size_t workers, max_batch, connections;
  };
  for (const auto& c : {Config{1, 1, 1}, Config{4, 8, 3}}) {
    ServerConfig server_config;
    server_config.workers = c.workers;
    server_config.max_batch = c.max_batch;
    Server server(*artifact_, server_config);
    server.start();

    ClientOptions options;
    options.requests = kRequests;
    options.connections = c.connections;
    options.window = 16;
    options.base_seed = kBaseSeed;
    const auto stats =
        replay("127.0.0.1", server.port(), *pool_, options);
    EXPECT_EQ(stats.replies, kRequests);
    EXPECT_EQ(stats.digest, expected_digest)
        << "workers=" << c.workers << " batch=" << c.max_batch;

    server.request_stop();
    server.wait();
    // Drain accounting: every admitted request was answered, batch sizes
    // stayed within the ceiling, and the histogram adds up.
    const auto server_stats = server.stats();
    EXPECT_EQ(server_stats.served, kRequests);
    EXPECT_LE(server_stats.batch_hist.size(), c.max_batch);
    std::uint64_t hist_jobs = 0;
    for (std::size_t b = 0; b < server_stats.batch_hist.size(); ++b)
      hist_jobs += server_stats.batch_hist[b] * (b + 1);
    EXPECT_EQ(hist_jobs, kRequests);
    EXPECT_GE(server_stats.max_queue_depth, 1u);
  }
}

TEST_F(ServeTest, BoundedQueueAnswersOverflowWithQueueFull) {
  // One slow worker, batch size 1, a queue bound of 2 — then a flood of
  // classify frames. Every frame must be answered exactly once: either a
  // kReply that is bit-equal to the serial engine's, or a kQueueFull
  // carrying the rejected id. The connection must survive the rejections.
  constexpr std::size_t kRequests = 300;
  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_batch = 1;
  server_config.max_queue = 2;
  Server server(*artifact_, server_config);
  server.start();

  const int fd = connect_to("127.0.0.1", server.port());
  // Send everything before reading anything. Deadlock-free: every answer
  // frame is <= 25 bytes on the wire, so all kRequests answers fit in the
  // kernel socket buffers and the server's reader never stalls on a write.
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_TRUE(write_frame(fd, encode_classify(request(i))));

  const auto expected = serial_replies(*artifact_, kRequests);
  std::vector<bool> seen(kRequests, false);
  std::size_t replies = 0, rejected = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t k = 0; k < kRequests; ++k) {
    ASSERT_TRUE(read_frame(fd, payload)) << "frame " << k;
    if (frame_type(payload) == MsgType::kQueueFull) {
      const std::uint64_t id = decode_queue_full(payload);
      ASSERT_LT(id, kRequests);
      EXPECT_FALSE(seen[id]) << "id " << id << " answered twice";
      seen[static_cast<std::size_t>(id)] = true;
      ++rejected;
    } else {
      const auto reply = decode_reply(payload);
      ASSERT_LT(reply.id, kRequests);
      EXPECT_FALSE(seen[reply.id]) << "id " << reply.id << " answered twice";
      seen[static_cast<std::size_t>(reply.id)] = true;
      EXPECT_EQ(reply, expected[reply.id]) << "request " << reply.id;
      ++replies;
    }
  }
  ::close(fd);
  EXPECT_EQ(replies + rejected, kRequests);
  EXPECT_GE(rejected, 1u) << "the flood never overflowed a queue of 2";
  EXPECT_GE(replies, server_config.max_queue);

  server.request_stop();
  server.wait();
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, replies);
  EXPECT_LE(stats.max_queue_depth, server_config.max_queue);
}

TEST_F(ServeTest, ReplayClientRetriesQueueFullUntilAnswered) {
  // Regression: the replay client used to abort on the first kQueueFull
  // frame (decode_reply contract violation) instead of retrying. Against a
  // deliberately tiny queue it must absorb the rejections, re-send until
  // every request is answered, and land on the exact serial digest —
  // backpressure is flow control, not data loss.
  constexpr std::size_t kRequests = 64;
  auto expected = serial_replies(*artifact_, kRequests);
  const std::uint64_t expected_digest = digest_replies(expected);

  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_batch = 1;
  server_config.max_queue = 2;
  Server server(*artifact_, server_config);
  server.start();

  ClientOptions options;
  options.requests = kRequests;
  options.connections = 2;
  options.window = 16;  // 32 in flight against a queue of 2: must reject
  options.base_seed = kBaseSeed;
  const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
  EXPECT_EQ(stats.replies, kRequests);
  EXPECT_EQ(stats.digest, expected_digest);
  EXPECT_GE(stats.retries, 1u);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().served, kRequests);
}

TEST_F(ServeTest, RequestDeadlineAnswersStaleJobsExactlyOnce) {
  // One slow worker, batch size 1, and a 1us request deadline: almost every
  // admitted request goes stale in the queue. Each one must still be
  // answered exactly once — kDeadlineExceeded for the stale ones, a reply
  // bit-equal to the serial engine's for the fresh ones.
  constexpr std::size_t kRequests = 60;
  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_batch = 1;
  server_config.request_deadline_us = 1;
  Server server(*artifact_, server_config);
  server.start();

  const int fd = connect_to("127.0.0.1", server.port());
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_TRUE(write_frame(fd, encode_classify(request(i))));

  const auto expected = serial_replies(*artifact_, kRequests);
  std::vector<bool> seen(kRequests, false);
  std::size_t replies = 0, expired = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t k = 0; k < kRequests; ++k) {
    ASSERT_TRUE(read_frame(fd, payload)) << "frame " << k;
    std::uint64_t id;
    if (frame_type(payload) == MsgType::kDeadlineExceeded) {
      id = decode_deadline_exceeded(payload);
      ++expired;
    } else {
      const auto reply = decode_reply(payload);
      id = reply.id;
      ASSERT_LT(id, kRequests);
      EXPECT_EQ(reply, expected[id]) << "request " << id;
      ++replies;
    }
    ASSERT_LT(id, kRequests);
    EXPECT_FALSE(seen[id]) << "id " << id << " answered twice";
    seen[static_cast<std::size_t>(id)] = true;
  }
  ::close(fd);
  EXPECT_EQ(replies + expired, kRequests);
  EXPECT_GE(expired, 1u) << "nothing went stale against a 1us deadline";

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().deadline_exceeded, expired);
  EXPECT_EQ(server.stats().served, replies);
}

TEST_F(ServeTest, MaxConnsShedsExcessAcceptsImmediately) {
  ServerConfig server_config;
  server_config.max_conns = 1;
  Server server(*artifact_, server_config);
  server.start();

  // First connection occupies the only slot (a served request proves the
  // reader is registered, not just accepted).
  const int fd = connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(write_frame(fd, encode_classify(request(0))));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(frame_type(payload), MsgType::kReply);

  // Second connection is shed at accept: immediate close, no reply ever.
  const int extra = connect_to("127.0.0.1", server.port());
  EXPECT_FALSE(read_frame(extra, payload));
  ::close(extra);

  // Releasing the slot makes the next connection admissible again.
  ::close(fd);
  ClientOptions options;
  options.requests = 4;
  options.base_seed = kBaseSeed;
  const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
  EXPECT_EQ(stats.replies, 4u);

  server.request_stop();
  server.wait();
  EXPECT_GE(server.stats().rejected_conns, 1u);
}

TEST_F(ServeTest, WatchdogCountsWorkersStuckPastStallBound) {
  // A 1ms stall bound against deliberately long batches (one worker, batch
  // ceiling 128, a 256-request flood): the watchdog must observe at least
  // one batch outliving the bound and count it, while the server keeps
  // serving correctly.
  constexpr std::size_t kRequests = 256;
  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_batch = 128;
  server_config.watchdog_stall_ms = 1;
  Server server(*artifact_, server_config);
  server.start();

  ClientOptions options;
  options.requests = kRequests;
  options.window = 256;
  options.base_seed = kBaseSeed;
  const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
  EXPECT_EQ(stats.replies, kRequests);

  server.request_stop();
  server.wait();
  const auto server_stats = server.stats();
  EXPECT_EQ(server_stats.served, kRequests);
  EXPECT_GE(server_stats.wedged_events, 1u)
      << "no batch outlived a 1ms stall bound";
}

TEST_F(ServeTest, BatchesStillFormUnderLoad) {
  // Workers never wait for stragglers, but a flood still queues behind a
  // busy worker, and the next pop takes that backlog as one batch (capped
  // at max_batch). Batching changes no reply.
  constexpr std::size_t kRequests = 256;
  auto expected = serial_replies(*artifact_, kRequests);
  const std::uint64_t expected_digest = digest_replies(expected);
  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_batch = 16;
  Server server(*artifact_, server_config);
  server.start();

  ClientOptions options;
  options.requests = kRequests;
  options.window = kRequests;
  options.base_seed = kBaseSeed;
  const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
  EXPECT_EQ(stats.replies, kRequests);
  EXPECT_EQ(stats.digest, expected_digest);

  server.request_stop();
  server.wait();
  const auto server_stats = server.stats();
  EXPECT_EQ(server_stats.served, kRequests);
  EXPECT_LT(server_stats.batches, server_stats.served)
      << "no batch held more than one job";
  EXPECT_LE(server_stats.batch_hist.size(), 16u);
}

TEST_F(ServeTest, ConnectToDisablesNagle) {
  Server server(*artifact_, ServerConfig{});
  server.start();
  const int fd = connect_to("127.0.0.1", server.port());
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0);
  ::close(fd);
  server.request_stop();
  server.wait();
}

TEST_F(ServeTest, HotReloadSwapsGenerationWithoutDroppingConnections) {
  // Reload mid-replay: the generation bumps, in-flight requests finish on
  // whichever generation their batch started with, and — because both
  // generations here hold the same frozen state — the digest is the serial
  // one. reconnects==0 proves no connection was dropped by the swap.
  constexpr std::size_t kRequests = 200;
  auto expected = serial_replies(*artifact_, kRequests);
  const std::uint64_t expected_digest = digest_replies(expected);

  const std::string path = ::testing::TempDir() + "serve_test_reload.sxda";
  save_artifact(*artifact_, path);
  ServerConfig server_config;
  server_config.workers = 2;
  Server server(load_artifact_shared(path), server_config);
  server.start();
  EXPECT_EQ(server.generation(), 1u);

  ReplayStats stats;
  std::thread replayer([&] {
    ClientOptions options;
    options.requests = kRequests;
    options.connections = 2;
    options.window = 8;
    options.base_seed = kBaseSeed;
    stats = replay("127.0.0.1", server.port(), *pool_, options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.reload(load_artifact_shared(path));
  replayer.join();
  std::remove(path.c_str());

  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(stats.replies, kRequests);
  EXPECT_EQ(stats.digest, expected_digest);
  EXPECT_EQ(stats.reconnects, 0u) << "reload dropped a connection";

  // Replies keep flowing on the new generation, and stats report it.
  ClientOptions after;
  after.requests = 8;
  after.base_seed = kBaseSeed;
  EXPECT_EQ(replay("127.0.0.1", server.port(), *pool_, after).digest,
            [&] {
              auto first = serial_replies(*artifact_, 8);
              return digest_replies(first);
            }());
  EXPECT_EQ(fetch_stats("127.0.0.1", server.port()).generation, 2u);

  server.request_stop();
  server.wait();
}

TEST_F(ServeTest, ReloadRejectsInvalidArtifactAndKeepsServing) {
  ServerConfig server_config;
  Server server(*artifact_, server_config);
  server.start();
  EXPECT_THROW(server.reload(nullptr), ContractViolation);
  EXPECT_EQ(server.generation(), 1u);

  ClientOptions options;
  options.requests = 4;
  options.base_seed = kBaseSeed;
  EXPECT_EQ(replay("127.0.0.1", server.port(), *pool_, options).replies, 4u);
  server.request_stop();
  server.wait();
}

TEST_F(ServeTest, ServerAnswersStatsAndSurvivesBadClients) {
  ServerConfig server_config;
  server_config.workers = 2;
  Server server(*artifact_, server_config);
  server.start();

  // A client that sends garbage gets dropped; the server keeps serving.
  {
    const int fd = connect_to("127.0.0.1", server.port());
    const std::vector<std::uint8_t> garbage = {0x7f, 1, 2, 3};
    ASSERT_TRUE(write_frame(fd, garbage));
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(read_frame(fd, payload));  // server closed on us
    ::close(fd);
  }
  // A classify with the wrong pixel count is dropped without an answer and
  // without poisoning the worker.
  {
    const int fd = connect_to("127.0.0.1", server.port());
    ClassifyRequest bad;
    bad.image = {0.5f, 0.5f};
    ASSERT_TRUE(write_frame(fd, encode_classify(bad)));
    ::close(fd);
  }

  ClientOptions options;
  options.requests = 8;
  options.base_seed = kBaseSeed;
  const auto stats = replay("127.0.0.1", server.port(), *pool_, options);
  EXPECT_EQ(stats.replies, 8u);
  const auto server_stats = fetch_stats("127.0.0.1", server.port());
  EXPECT_EQ(server_stats.served, 8u);

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace sparkxd::serve
