#include "serve/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/contracts.hpp"

namespace sparkxd::serve {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(std::shared_ptr<const ServingArtifact> artifact,
               ServerConfig config)
    : config_(config), artifact_(std::move(artifact)) {
  SPARKXD_REQUIRE(artifact_ != nullptr, "server needs an artifact");
  SPARKXD_REQUIRE(config_.workers >= 1, "server needs at least one worker");
  SPARKXD_REQUIRE(config_.max_batch >= 1, "server batch ceiling must be >= 1");
  SPARKXD_REQUIRE(config_.max_queue >= 1,
                  "server admission-queue bound must be >= 1");
  artifact_->validate();
  beats_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    beats_.push_back(std::make_unique<WorkerBeat>());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SPARKXD_REQUIRE(listen_fd_ >= 0, "cannot create the listening socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  SPARKXD_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "cannot bind the serving port");
  SPARKXD_REQUIRE(::listen(listen_fd_, 128) == 0,
                  "cannot listen on the serving port");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  SPARKXD_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0,
                  "cannot read back the bound serving port");
  port_ = ntohs(bound.sin_port);
}

Server::Server(const ServingArtifact& artifact, ServerConfig config)
    : Server(std::shared_ptr<const ServingArtifact>(
                 std::shared_ptr<const ServingArtifact>(), &artifact),
             config) {}

Server::~Server() {
  request_stop();
  wait();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::start() {
  SPARKXD_REQUIRE(!accept_thread_.joinable(), "server already started");
  worker_threads_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    worker_threads_.emplace_back([this, w] { worker_loop(w); });
  if (config_.watchdog_stall_ms > 0)
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::reload(std::shared_ptr<const ServingArtifact> artifact) {
  SPARKXD_REQUIRE(artifact != nullptr, "reload needs an artifact");
  artifact->validate();
  std::lock_guard<std::mutex> lock(artifact_mu_);
  artifact_ = std::move(artifact);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::pair<std::shared_ptr<const ServingArtifact>, std::uint64_t>
Server::artifact_snapshot() const {
  std::lock_guard<std::mutex> lock(artifact_mu_);
  return {artifact_, generation_.load(std::memory_order_acquire)};
}

void Server::request_stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Kick every reader out of its blocking read; replies still flow (the
  // write half stays open until the connection object dies).
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& weak : conns_)
    if (const auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
  queue_cv_.notify_all();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is done, so reader_threads_ can no longer grow.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(reader_threads_);
  }
  for (auto& t : readers) t.join();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  watchdog_stop_.store(true);
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.generation = generation_.load(std::memory_order_acquire);
  out.wedged_events = wedged_events_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  out.evicted_slow = evicted_slow_.load(std::memory_order_relaxed);
  out.rejected_conns = rejected_conns_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.batches = batches_;
  out.max_queue_depth = max_queue_depth_;
  out.batch_hist = batch_hist_;
  return out;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or hard error): stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;  // raced with request_stop(); the listener dies next round
    }
    if (config_.max_conns > 0 &&
        live_conns_.load(std::memory_order_relaxed) >= config_.max_conns) {
      // Overload safety: shed the connection at accept time instead of
      // spawning an unbounded reader fan-out. The peer sees an immediate
      // close and is expected to back off and reconnect.
      rejected_conns_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    // Replies are small frames written as soon as they are ready; Nagle
    // would hold one back until the peer ACKs the previous one.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    live_conns_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      ++active_readers_;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    accept_done_ = true;
  }
  queue_cv_.notify_all();
}

void Server::write_to_conn(Connection& conn,
                           const std::vector<std::uint8_t>& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  write_frame(conn.fd, frame, conn.crc);  // peer-gone is not our problem
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::vector<std::uint8_t> payload;
  bool crc = false;  // reader's own view; mirrored into conn->crc
  for (;;) {
    ReadStatus status;
    try {
      status = read_frame_ex(conn->fd, payload,
                             FrameOptions{crc, config_.read_deadline_ms});
    } catch (const ContractViolation&) {
      break;  // malformed stream: drop the connection
    }
    if (status == ReadStatus::kEof) break;
    if (status == ReadStatus::kTimeout) {
      // Slow-loris: a frame started and never finished. Evict — shutdown
      // makes the eviction immediately visible to the peer; the fd closes
      // when the last queued job referencing this connection completes.
      evicted_slow_.fetch_add(1, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    if (status == ReadStatus::kBadCrc) {
      // The payload is garbage and the stream may be out of sync; answer
      // kBadFrame so the client knows to reconnect-and-resend, then close.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->fd, encode_bad_frame(), conn->crc);
      }
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    MsgType type;
    try {
      type = frame_type(payload);
      if (type == MsgType::kClassify) {
        Job job{conn, decode_classify(payload), Clock::now()};
        std::size_t depth = 0;
        bool admitted = false;
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          if (queue_.size() < config_.max_queue) {
            queue_.push_back(std::move(job));
            depth = queue_.size();
            admitted = true;
          }
        }
        if (admitted) {
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            if (depth > max_queue_depth_) max_queue_depth_ = depth;
          }
          queue_cv_.notify_one();
        } else {
          // Backpressure: answer kQueueFull instead of growing the queue
          // (or dropping the connection) — the request is rejected, the
          // connection stays usable, the client may retry.
          const auto frame = encode_queue_full(job.request.id);
          std::lock_guard<std::mutex> lock(conn->write_mu);
          if (!write_frame(conn->fd, frame, conn->crc)) break;
        }
      } else if (type == MsgType::kStats) {
        const auto frame = encode_stats_reply(stats());
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (!write_frame(conn->fd, frame, conn->crc)) break;
      } else if (type == MsgType::kHello) {
        const Hello hello = decode_hello(payload);
        // The ack travels in the OLD framing; everything after it (both
        // directions) in the negotiated one. conn->crc flips under
        // write_mu so a worker reply can never straddle the switch.
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (!write_frame(conn->fd, encode_hello_ack(hello), conn->crc)) break;
        conn->crc = hello.crc;
        crc = hello.crc;
      } else {
        break;  // clients must not send server-to-client message types
      }
    } catch (const ContractViolation&) {
      break;  // malformed payload: drop the connection
    }
  }
  live_conns_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --active_readers_;
  }
  queue_cv_.notify_all();
}

void Server::worker_loop(std::size_t worker_index) {
  auto [artifact, local_gen] = artifact_snapshot();
  auto engine = std::make_unique<Engine>(*artifact);
  WorkerBeat& beat = *beats_[worker_index];
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() ||
               (stopping_.load() && accept_done_ && active_readers_ == 0);
      });
      if (queue_.empty()) return;  // fully drained, nothing can arrive
      // Work-conserving: take what is already queued and start at once.
      // Engine::classify runs a batch's jobs one by one, so waiting for
      // stragglers would only delay this batch's replies.
      while (!queue_.empty() && batch.size() < config_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // Hot reload: pick up the newest generation before the batch starts.
    // The whole batch runs on ONE generation; the old artifact stays alive
    // (shared_ptr) until the last worker drops it.
    if (generation_.load(std::memory_order_acquire) != local_gen) {
      std::tie(artifact, local_gen) = artifact_snapshot();
      engine = std::make_unique<Engine>(*artifact);
    }
    record_batch(batch.size());
    beat.batch_seq.fetch_add(1, std::memory_order_relaxed);
    beat.busy_since_ns.store(now_ns(), std::memory_order_release);
    for (const auto& job : batch) {
      if (config_.request_deadline_us > 0 &&
          Clock::now() - job.admitted >
              std::chrono::microseconds(config_.request_deadline_us)) {
        // Too stale to be worth classifying — the client has likely given
        // up or retried already. Answer instead of silently dropping so
        // the id is still accounted for exactly once.
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        write_to_conn(*job.conn, encode_deadline_exceeded(job.request.id));
        continue;
      }
      ClassifyReply reply;
      try {
        reply = engine->classify(job.request);
      } catch (const ContractViolation&) {
        continue;  // bad request (e.g. wrong image size): no reply, no crash
      }
      served_.fetch_add(1, std::memory_order_relaxed);
      write_to_conn(*job.conn, encode_reply(reply));
    }
    beat.busy_since_ns.store(0, std::memory_order_release);
  }
}

void Server::watchdog_loop() {
  const auto stall_ns =
      static_cast<std::int64_t>(config_.watchdog_stall_ms) * 1'000'000;
  // Sample a few times per stall bound so detection latency stays a
  // fraction of the bound itself.
  const auto period =
      std::chrono::milliseconds(config_.watchdog_stall_ms / 4 + 1);
  std::vector<std::uint64_t> flagged(config_.workers, ~0ull);
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    const std::int64_t now = now_ns();
    for (std::size_t w = 0; w < beats_.size(); ++w) {
      const std::uint64_t seq = beats_[w]->batch_seq.load(std::memory_order_relaxed);
      const std::int64_t busy =
          beats_[w]->busy_since_ns.load(std::memory_order_acquire);
      if (busy != 0 && now - busy > stall_ns && flagged[w] != seq) {
        // Fail loudly (stderr + stats counter) but keep serving: the
        // watchdog detects a wedged worker, it does not shoot it.
        flagged[w] = seq;
        wedged_events_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "sparkxd_serve: watchdog: worker %zu stuck on batch "
                     "%llu for %lldms (bound %llums)\n",
                     w, static_cast<unsigned long long>(seq),
                     static_cast<long long>((now - busy) / 1'000'000),
                     static_cast<unsigned long long>(config_.watchdog_stall_ms));
      }
    }
  }
}

void Server::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++batches_;
  if (batch_hist_.size() < batch_size) batch_hist_.resize(batch_size, 0);
  ++batch_hist_[batch_size - 1];
}

}  // namespace sparkxd::serve
