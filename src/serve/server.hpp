#pragma once
// The long-lived serving daemon core: a localhost TCP listener feeding
// `workers` engine slots, either directly or through an admission queue.
//
// Thread layout:
//   accept thread        blocks in accept(), joins the readers that ended
//                        since the last accept, then spawns one reader per
//                        client (closing at once at the --max-conns cap)
//   reader threads       decode frames. A kClassify job is served on the
//                        reader itself when it is lone: the queue is
//                        empty, a slot is free and nothing more is
//                        buffered on the connection. Handing it to a
//                        sleeping worker would cost a cross-CPU wake-up
//                        on top of the classify. Any other job goes to
//                        the queue (bounded by max_queue — overflow is
//                        answered with kQueueFull instead of admitted).
//                        kStats is answered inline (it must not queue
//                        behind the work it is measuring), kHello
//                        upgrades the connection to CRC framing
//                        (protocol v2). A frame that stalls mid-read past
//                        read_deadline_ms gets its connection evicted
//                        (slow-loris defense); a CRC failure is answered
//                        kBadFrame and the connection closed (stream sync
//                        is gone)
//   worker threads       wait for a queued job AND a free slot, take the
//                        oldest job, serve it, and wait again — so no
//                        queued job waits behind a busy slot while
//                        another sits free
//   watchdog thread      (when watchdog_stall_ms > 0) samples per-slot
//                        heartbeats; a slot stuck on one request past the
//                        stall bound is counted in stats().wedged_events
//                        and logged — the loud-failure signal for a
//                        wedged engine
//
// A slot is one serve::Engine, the artifact generation it was built from
// and its watchdog heartbeat. A thread claims a free slot under the queue
// mutex before it classifies and returns it afterwards, so at most
// `workers` classifies run at once, whichever threads run them. Either
// way a job is served the same: reload check, deadline check, classify,
// reply written under the owning connection's write mutex. A job that
// waited past request_deadline_us is answered kDeadlineExceeded instead
// of classified. Queued jobs start in arrival order, and a lone job is
// served inline only while the queue is empty, so it never overtakes one.
//
// Replies are deterministic per request (see engine.hpp), so slot and
// thread assignment and arrival order are unobservable in the payloads.
// Both ends set TCP_NODELAY: every frame is small and written whole, so
// Nagle's delay would only hold it back.
//
// Hot reload: reload() validates and atomically installs a new refcounted
// artifact generation. A slot notices before its next job and rebuilds its
// engine; an in-flight job finishes on the generation it started with, no
// connection is touched, and the old artifact is freed when the last
// engine lets go. stats().generation exposes the installed one.
//
// Shutdown contract: request_stop() stops accepting, wakes the readers
// (SHUT_RD on every live connection; the accept loop checks for the stop
// under the lock it registers connections under), and lets the workers
// drain whatever was already admitted; wait() joins everything. Every
// admitted request is answered before its connection closes.

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/protocol.hpp"

namespace sparkxd::serve {

struct ServerConfig {
  std::uint16_t port = 0;       ///< 0 = ephemeral; read back via port()
  /// Engine slots, and the worker threads draining the queue: at most
  /// this many requests are classified at once, whether a worker or a
  /// connection's reader (for a lone request) serves them.
  std::size_t workers = 1;
  /// Admission-queue bound (backpressure): a classify frame arriving while
  /// the queue already holds this many jobs is answered with kQueueFull
  /// instead of being admitted — memory stays bounded under overload and
  /// the connection survives so the client can retry.
  std::size_t max_queue = 4096;
  /// Slow-loris defense: once a frame has STARTED arriving on a
  /// connection, the rest of it must land within this many milliseconds or
  /// the connection is evicted (counted in stats().evicted_slow). Idle
  /// connections at a frame boundary are never evicted. 0 disables.
  std::uint64_t read_deadline_ms = 0;
  /// Per-request deadline: a job that waited in the admission queue longer
  /// than this is answered kDeadlineExceeded instead of classified
  /// (counted in stats().deadline_exceeded). 0 disables.
  std::uint64_t request_deadline_us = 0;
  /// Accept cap: connections accepted while this many are already live are
  /// closed immediately (counted in stats().rejected_conns). 0 = unlimited.
  std::size_t max_conns = 0;
  /// Watchdog stall bound: a slot processing ONE request for longer
  /// than this is counted in stats().wedged_events and logged to stderr
  /// (once per request). The server keeps running — the watchdog detects,
  /// it does not kill. 0 disables the watchdog thread.
  std::uint64_t watchdog_stall_ms = 0;
};

class Server {
 public:
  /// Binds and validates but does not serve yet. The refcounted artifact
  /// is generation 1; reload() installs later generations.
  Server(std::shared_ptr<const ServingArtifact> artifact, ServerConfig config);
  /// Non-owning convenience overload; the artifact must outlive the server
  /// (and any generation still held by a slot after reload()).
  Server(const ServingArtifact& artifact, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept thread, the worker pool, and (if configured) the
  /// watchdog. The slots' engines are built by the constructor.
  void start();

  /// The bound port (resolved even when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Validates `artifact` and atomically swaps it in as the next
  /// generation. In-flight requests finish on their old generation; every
  /// job started afterwards runs on the new one. No connection is
  /// dropped. Thread-safe; callable while serving.
  void reload(std::shared_ptr<const ServingArtifact> artifact);

  /// The currently installed artifact generation (starts at 1).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Begins the graceful drain; idempotent, safe from a signal-poll loop.
  void request_stop();

  /// Joins all threads; returns once every admitted request is answered
  /// and every connection is closed. Blocks until request_stop() happens.
  void wait();

  [[nodiscard]] ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mu;  ///< replies from different slots interleave
    /// CRC framing negotiated via kHello. Guarded by write_mu: the reader
    /// flips it while holding write_mu (after sending the ack), and every
    /// writer already holds write_mu when it frames a reply.
    bool crc = false;
  };

  struct Job {
    std::shared_ptr<Connection> conn;
    ClassifyRequest request;
    Clock::time_point admitted;  ///< for the per-request deadline
  };

  /// One engine and the generation it was built from. engine, artifact and
  /// generation belong to whichever thread claimed the slot; the
  /// heartbeat is what the watchdog samples.
  struct Slot {
    explicit Slot(std::shared_ptr<const ServingArtifact> a)
        : artifact(std::move(a)), engine(std::make_unique<Engine>(*artifact)) {}
    std::shared_ptr<const ServingArtifact> artifact;
    std::uint64_t generation = 1;
    std::unique_ptr<Engine> engine;
    std::atomic<std::int64_t> busy_since_ns{0};  ///< 0 = idle
    std::atomic<std::uint64_t> job_seq{0};
  };

  /// A connection and the thread reading it.
  struct Reader { std::shared_ptr<Connection> conn; std::thread thread; };
  using Readers = std::list<Reader>;

  void accept_loop();
  void reader_loop(Readers::iterator self);
  void join_finished();  ///< joins the readers that have ended so far
  void worker_loop();
  /// Serves `job` on `slot`, which the caller claimed, then frees the slot.
  void serve_job(Slot& slot, const Job& job);
  void watchdog_loop();
  void write_to_conn(Connection& conn, const std::vector<std::uint8_t>& frame);
  [[nodiscard]] std::pair<std::shared_ptr<const ServingArtifact>,
                          std::uint64_t>
  artifact_snapshot() const;

  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  // Refcounted artifact generations (hot reload).
  mutable std::mutex artifact_mu_;
  std::shared_ptr<const ServingArtifact> artifact_;  // guarded by artifact_mu_
  std::atomic<std::uint64_t> generation_{1};

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::thread watchdog_thread_;
  std::atomic<bool> watchdog_stop_{false};
  std::vector<std::unique_ptr<Slot>> slots_;  // one per worker, fixed

  // Admission queue, free slots and readers. Workers may exit only when
  // the queue is empty AND no producer can refill it (stopping, no reader).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;              // guarded by queue_mu_
  std::vector<Slot*> free_slots_;      // guarded by queue_mu_
  // Live connections (the --max-conns count, what request_stop() shuts
  // down). An ended reader lets go of its connection, which closes once no
  // queued job holds it, and moves to finished_ for the next accept or
  // wait() to join.
  Readers readers_;                    // guarded by queue_mu_
  Readers finished_;                   // guarded by queue_mu_
  std::uint64_t max_queue_depth_ = 0;  // guarded by queue_mu_

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};  ///< jobs run, queued or inline
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> evicted_slow_{0};
  std::atomic<std::uint64_t> rejected_conns_{0};
  std::atomic<std::uint64_t> wedged_events_{0};
};

}  // namespace sparkxd::serve
