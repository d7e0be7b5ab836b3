// serve_throughput — requests/sec of the serving layer vs worker count.
//
// Builds a serving artifact in-process (the smoke-digits-m0 scenario — the
// same golden-locked workload CI smokes), then for each worker count spins
// up a loopback sparkxd serve::Server, replays a fixed deterministic
// request stream against it, and reports throughput + latency percentiles
// per configuration as sparkxd-bench-v1 phases ("serve_w1", "serve_w2",
// ...). A first phase, "serve_w1_lone", sends one request at a time over
// one connection to one worker: its latency is service time with no
// queueing. The reply digest MUST be identical across every phase — the
// serving determinism contract — and the exit code enforces it, so this
// bench doubles as a concurrency regression check while CI archives the
// numbers as a trend artifact (no thresholds).
//
//   serve_throughput [--json serve_throughput.json]
//
// Honours SPARKXD_SCALE / SPARKXD_SEED for the artifact workload. Every
// phase replays at least 6000 requests whatever the scale (about 0.3 s at
// 20k req/s), so its rate and tail are not start-up noise; the JSON
// records the count per phase. Exit codes: 0 ok, 1 digest divergence
// across phases, 2 bad usage.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "scenario/scenario.hpp"
#include "serve/artifact.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace sparkxd;

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_out_path(argc, argv);
  bench::banner("serving throughput vs worker count",
                "batched serving scales with workers at a bit-stable digest");

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
  // server's own wait plus service time.
  struct Phase {
    std::string name;
    std::size_t workers, connections, window;
  };
  std::vector<Phase> phases = {{"serve_w1_lone", 1, 1, 1}};
  for (const std::size_t workers : worker_counts)
    phases.push_back({"serve_w" + std::to_string(workers), workers,
                      options.connections, options.window});

  bench::BenchReport report("serve_throughput");
  Table tbl("serve_throughput", {"phase", "requests", "req/s", "p50 us",
                                 "p95 us", "p99 us", "batches", "digest"});
  bool diverged = false;
  std::uint64_t reference_digest = 0;
  for (const Phase& ph : phases) {
    serve::ServerConfig config;
    config.workers = ph.workers;
    config.max_batch = 8;
    serve::Server server(artifact, config);
    server.start();
    serve::ClientOptions phase_options = options;
    phase_options.connections = ph.connections;
    phase_options.window = ph.window;
    const auto stats = serve::replay("127.0.0.1", server.port(), pool,
                                     phase_options);
    const auto server_stats = server.stats();
    server.request_stop();
    server.wait();

    const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
    const double rps =
        wall_s > 0.0 ? static_cast<double>(stats.replies) / wall_s : 0.0;
    const double p50 = percentile(stats.latency_us, 50.0);
    const double p95 = percentile(stats.latency_us, 95.0);
    const double p99 = percentile(stats.latency_us, 99.0);

    if (&ph == &phases.front()) {
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
                 std::to_string(server_stats.batches), digest_hex});

    auto& phase = report.add_phase(ph.name, stats.replies,
                                   static_cast<double>(stats.wall_ns));
    phase.metrics.emplace_back("requests",
                               static_cast<double>(options.requests));
    phase.metrics.emplace_back("rps", rps);
    phase.metrics.emplace_back("p50_us", p50);
    phase.metrics.emplace_back("p95_us", p95);
    phase.metrics.emplace_back("p99_us", p99);
    phase.metrics.emplace_back("batches",
                               static_cast<double>(server_stats.batches));
    phase.metrics.emplace_back(
        "max_queue_depth",
        static_cast<double>(server_stats.max_queue_depth));
  }
  tbl.emit();

  if (diverged) {
    std::fprintf(stderr,
                 "serve_throughput: reply digest DIVERGED across phases "
                 "— the serving determinism contract is broken\n");
    return 1;
  }
  std::printf("digest stable across %zu serving configurations\n",
              phases.size());
  if (json_path != nullptr && !report.write(json_path)) return 2;
  return 0;
}
