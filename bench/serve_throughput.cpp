// serve_throughput — requests/sec of the serving layer vs worker count.
//
// Builds a serving artifact in-process (the smoke-digits-m0 scenario — the
// same golden-locked workload CI smokes), then for each worker count spins
// up a loopback sparkxd serve::Server, replays a fixed deterministic
// request stream against it, and reports throughput + latency percentiles
// per configuration as sparkxd-bench-v1 phases ("serve_w1", "serve_w2",
// ...). A first phase, "serve_w1_lone", sends one request at a time over
// one connection to one worker: its latency is service time with no
// queueing. A second, "serve_w1_paced", sends 300 requests one every 2 ms
// over one connection to one worker, so each meets an idle server: its
// latency includes whatever the server pays to start work after sleeping
// (the lone phase sends the next request as soon as a reply lands, so the
// server never sleeps long). The reply digest MUST be identical across
// every phase — the serving determinism contract — and the paced phase's
// must equal a serial engine's over the same 300 requests; the exit code
// enforces both, so this bench doubles as a concurrency regression check
// while CI archives the numbers as a trend artifact (no thresholds).
//
//   serve_throughput [--json serve_throughput.json]
//
// Honours SPARKXD_SCALE / SPARKXD_SEED for the artifact workload. Every
// closed-loop phase replays at least 6000 requests whatever the scale
// (about 0.3 s at 20k req/s), so its rate and tail are not start-up noise;
// the JSON records the count per phase. Exit codes: 0 ok, 1 digest divergence
// (across phases, or paced against serial), 2 bad usage.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "scenario/scenario.hpp"
#include "serve/artifact.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace sparkxd;
using Clock = std::chrono::steady_clock;

/// Request i of a replay stream (see serve/client.hpp).
serve::ClassifyRequest request(const data::Dataset& pool,
                               std::uint64_t base_seed, std::size_t i) {
  return {i, hash_combine(base_seed, i), pool.images[i % pool.size()]};
}

/// Requests 0..n-1 on one connection, request i sent at start + i * gap
/// and answered before the next is due; latency runs from the send.
serve::ReplayStats paced_replay(std::uint16_t port, const data::Dataset& pool,
                                std::uint64_t base_seed, std::size_t n,
                                std::chrono::microseconds gap) {
  const int fd = serve::connect_to("127.0.0.1", port);
  serve::ReplayStats stats;
  std::vector<serve::ClassifyReply> replies;
  std::vector<std::uint8_t> payload;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start + i * gap);
    const auto sent = Clock::now();
    SPARKXD_REQUIRE(
        serve::write_frame(
            fd, serve::encode_classify(request(pool, base_seed, i))) &&
            serve::read_frame(fd, payload),
        "paced phase lost its connection");
    stats.latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - sent)
            .count());
    replies.push_back(serve::decode_reply(payload));
  }
  stats.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  ::close(fd);
  stats.replies = replies.size();
  stats.digest = serve::digest_replies(replies);
  return stats;
}

/// Digest of requests 0..n-1 classified one by one on a single engine.
std::uint64_t serial_digest(const serve::ServingArtifact& artifact,
                            const data::Dataset& pool,
                            std::uint64_t base_seed, std::size_t n) {
  serve::Engine engine(artifact);
  std::vector<serve::ClassifyReply> replies;
  for (std::size_t i = 0; i < n; ++i)
    replies.push_back(engine.classify(request(pool, base_seed, i)));
  return serve::digest_replies(replies);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_out_path(argc, argv);
  bench::banner("serving throughput vs worker count",
                "serving scales with workers at a bit-stable digest");

  // One artifact for every configuration, captured at the lowest voltage —
  // the operating point the paper's pipeline actually selects for.
  const auto* scenario = scenario::find_scenario("smoke-digits-m0");
  SPARKXD_REQUIRE(scenario != nullptr, "smoke scenario disappeared");
  core::ArtifactState state;
  (void)core::run_pipeline(scenario->pipeline_config(), &state);
  const auto artifact =
      serve::make_artifact(scenario->name, std::move(state));

  serve::ClientOptions options;
  options.requests = scaled(6000, 6000);
  options.connections = 4;
  options.window = 32;
  options.base_seed = experiment_seed();
  const auto pool = data::make_dataset(data::Task::kDigits, 64,
                                       options.base_seed);

  // Clip the sweep to the host's cores, but never below {1, 2}: the
  // cross-worker digest check needs at least two configurations, and mere
  // oversubscription cannot perturb a deterministic reply.
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  while (worker_counts.size() > 2 && worker_counts.back() > hw)
    worker_counts.pop_back();

  // The lone phase sends one request at a time over one connection, so
  // nothing ever queues behind another request: its latency is the
  // server's own wait plus service time. The paced phase (gap > 0) also
  // lets the server fall idle before every request.
  struct Phase {
    std::string name;
    std::size_t workers, connections, window;
    std::chrono::microseconds gap{0};
  };
  constexpr std::size_t kPacedRequests = 300;
  std::vector<Phase> phases = {
      {"serve_w1_lone", 1, 1, 1},
      {"serve_w1_paced", 1, 1, 1, std::chrono::microseconds(2000)}};
  for (const std::size_t workers : worker_counts)
    phases.push_back({"serve_w" + std::to_string(workers), workers,
                      options.connections, options.window});
  const std::uint64_t paced_digest =
      serial_digest(artifact, pool, options.base_seed, kPacedRequests);

  bench::BenchReport report("serve_throughput");
  Table tbl("serve_throughput", {"phase", "requests", "req/s", "p50 us",
                                 "p95 us", "p99 us", "max queue", "digest"});
  bool diverged = false;
  std::uint64_t reference_digest = 0;
  for (const Phase& ph : phases) {
    serve::ServerConfig config;
    config.workers = ph.workers;
    serve::Server server(artifact, config);
    server.start();
    serve::ClientOptions phase_options = options;
    phase_options.connections = ph.connections;
    phase_options.window = ph.window;
    const auto stats =
        ph.gap.count() > 0
            ? paced_replay(server.port(), pool, options.base_seed,
                           kPacedRequests, ph.gap)
            : serve::replay("127.0.0.1", server.port(), pool, phase_options);
    const auto server_stats = server.stats();
    server.request_stop();
    server.wait();

    const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
    const double rps =
        wall_s > 0.0 ? static_cast<double>(stats.replies) / wall_s : 0.0;
    const double p50 = percentile(stats.latency_us, 50.0);
    const double p95 = percentile(stats.latency_us, 95.0);
    const double p99 = percentile(stats.latency_us, 99.0);

    if (ph.gap.count() > 0) {
      diverged |= stats.digest != paced_digest;
    } else if (&ph == &phases.front()) {
      reference_digest = stats.digest;
    } else if (stats.digest != reference_digest) {
      diverged = true;
    }

    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                  stats.digest);
    tbl.add_row({ph.name, std::to_string(stats.replies), Table::num(rps, 0),
                 Table::num(p50, 0),
                 Table::num(p95, 0), Table::num(p99, 0),
                 std::to_string(server_stats.max_queue_depth), digest_hex});

    auto& phase = report.add_phase(ph.name, stats.replies,
                                   static_cast<double>(stats.wall_ns));
    phase.metrics.emplace_back("requests",
                               static_cast<double>(stats.replies));
    phase.metrics.emplace_back("rps", rps);
    phase.metrics.emplace_back("p50_us", p50);
    phase.metrics.emplace_back("p95_us", p95);
    phase.metrics.emplace_back("p99_us", p99);
    phase.metrics.emplace_back(
        "max_queue_depth",
        static_cast<double>(server_stats.max_queue_depth));
  }
  tbl.emit();

  if (diverged) {
    std::fprintf(stderr,
                 "serve_throughput: reply digest DIVERGED across phases "
                 "or from the serial engine — the serving determinism "
                 "contract is broken\n");
    return 1;
  }
  std::printf("digest stable across %zu serving configurations, paced "
              "phase equal to a serial engine\n",
              phases.size() - 1);
  if (json_path != nullptr && !report.write(json_path)) return 2;
  return 0;
}
