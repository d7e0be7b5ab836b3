// sparkxd_replay — deterministic load generator for sparkxd_serve.
//
// Builds a procedural image pool, replays N classify requests over C
// pipelined connections, and reports throughput + latency percentiles plus
// the server's own counters. The id-sorted reply digest is a pure function
// of (artifact, task, samples, seed, requests) — independent of
// connections, windowing, server workers, arrival order, AND of any injected
// network faults (--chaos): the retry policy re-sends until every request
// is answered exactly once, so CI pins the digest as a golden value to
// prove a deployment answers byte-for-byte even under chaos.
//
//   sparkxd_replay --port N [--host IP] [--requests N] [--connections N]
//                  [--window N] [--task digits|fashion] [--samples N]
//                  [--seed N] [--crc] [--chaos SPEC] [--chaos-seed N]
//                  [--json FILE] [--digest] [--allow-partial]
//
// --port-file FILE reads the port sparkxd_serve wrote (see its --port-file);
// a missing or still-empty file is retried for a few seconds, so starting
// the two processes concurrently does not race.
// --chaos injects deterministic faults into this client's own sends —
// torn/dripped/stalled/RST/bit-corrupted frames (grammar in
// src/serve/chaos.hpp); corrupt requires --crc.
// --digest prints "serve_digest=<hex16> replies=<n>" on stdout (the golden
// line); everything human-oriented goes to stderr.
// --json writes a "sparkxd-bench-v1" report (same schema as bench/).
//
// Exit codes: 0 success, 1 runtime failure, 2 bad usage.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "cli_args.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "data/dataset.hpp"
#include "serve/client.hpp"

namespace {

long long parse_count(const char* what, const char* spec, long long lo,
                      long long hi) {
  return sparkxd::cli::parse_count("sparkxd_replay", what, spec, lo, hi);
}

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sparkxd_replay --port N | --port-file FILE  [options]\n"
      "  --host IP          server address (default 127.0.0.1)\n"
      "  --port N           server port\n"
      "  --port-file FILE   read the port from FILE (sparkxd_serve "
      "--port-file);\n"
      "                     retried for up to 10s while missing or empty\n"
      "  --requests N       classify requests to send (default 1000)\n"
      "  --connections N    parallel connections (default 1)\n"
      "  --window N         max in-flight requests per connection "
      "(default 64)\n"
      "  --task NAME        image pool task: digits or fashion (default "
      "digits)\n"
      "  --samples N        image pool size (default 64)\n"
      "  --seed N           determinism root for pool + request seeds "
      "(default 7)\n"
      "  --crc              negotiate protocol v2 (CRC32-framed) per "
      "connection\n"
      "  --chaos SPEC       inject faults into this client's sends; SPEC is\n"
      "                     none | all[:P] | mode[:P](,mode[:P])* with mode\n"
      "                     in torn|drip|stall|rst|corrupt (corrupt needs "
      "--crc)\n"
      "  --chaos-seed N     chaos schedule seed (default 0); same spec+seed\n"
      "                     replays the same fault schedule bit for bit\n"
      "  --json FILE        write a sparkxd-bench-v1 JSON report to FILE\n"
      "  --digest           print the golden digest line on stdout\n"
      "  --allow-partial    report partial results when a connection slot\n"
      "                     exhausts its retry budget instead of failing;\n"
      "                     a replay that served NOTHING still exits 1\n"
      "  --help             this message\n");
}

/// Reads the port from `path`, retrying while the file is missing or not
/// yet (atomically) renamed into place. sparkxd_serve writes the file only
/// after listen(), so a successfully read port is immediately connectable.
long long read_port_file(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::ifstream pf(path);
      long long from_file = 0;
      if (pf >> from_file && from_file >= 1 && from_file <= 65535)
        return from_file;
    }
    if (Clock::now() >= give_up) {
      std::fprintf(stderr, "sparkxd_replay: cannot read a port from '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparkxd;

  std::string host = "127.0.0.1", port_file, json_path;
  long long port = -1;
  serve::ClientOptions options;
  data::Task task = data::Task::kDigits;
  std::size_t samples = 64;
  bool want_digest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sparkxd_replay: %s needs an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--host") {
      host = next("--host");
    } else if (arg == "--port") {
      port = parse_count("--port", next("--port"), 1, 65535);
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--requests") {
      options.requests = static_cast<std::size_t>(
          parse_count("--requests", next("--requests"), 1, 1ll << 32));
    } else if (arg == "--connections") {
      options.connections = static_cast<std::size_t>(
          parse_count("--connections", next("--connections"), 1, 4096));
    } else if (arg == "--window") {
      options.window = static_cast<std::size_t>(
          parse_count("--window", next("--window"), 1, 1 << 20));
    } else if (arg == "--task") {
      const std::string spec = next("--task");
      if (spec == "digits") {
        task = data::Task::kDigits;
      } else if (spec == "fashion") {
        task = data::Task::kFashion;
      } else {
        std::fprintf(stderr,
                     "sparkxd_replay: --task wants digits or fashion "
                     "(got '%s')\n",
                     spec.c_str());
        return 2;
      }
    } else if (arg == "--samples") {
      samples = static_cast<std::size_t>(
          parse_count("--samples", next("--samples"), 1, 1 << 20));
    } else if (arg == "--seed") {
      options.base_seed = static_cast<std::uint64_t>(
          parse_count("--seed", next("--seed"), 0, 1ll << 62));
    } else if (arg == "--crc") {
      options.crc = true;
    } else if (arg == "--chaos") {
      try {
        options.chaos = serve::ChaosSpec::parse(next("--chaos"));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sparkxd_replay: --chaos: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--chaos-seed") {
      options.chaos_seed = static_cast<std::uint64_t>(
          parse_count("--chaos-seed", next("--chaos-seed"), 0, 1ll << 62));
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--digest") {
      want_digest = true;
    } else if (arg == "--allow-partial") {
      options.allow_partial = true;
    } else {
      std::fprintf(stderr, "sparkxd_replay: unknown option '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  if (options.chaos.corrupt > 0.0 && !options.crc) {
    std::fprintf(stderr,
                 "sparkxd_replay: --chaos corrupt requires --crc (without "
                 "the check the server would decode corrupted frames)\n");
    return 2;
  }
  if (!port_file.empty()) port = read_port_file(port_file);
  if (port < 0) {
    std::fprintf(stderr, "sparkxd_replay: --port or --port-file is required\n");
    print_usage(stderr);
    return 2;
  }

  try {
    // The pool and the per-request seeds both derive from --seed, so the
    // whole request stream — and therefore the reply digest — is pinned by
    // the flag values alone.
    const auto pool = data::make_dataset(task, samples, options.base_seed);
    std::fprintf(stderr,
                 "sparkxd_replay: %zu requests over %zu connection(s) "
                 "(window %zu, pool %s/%zu, seed %" PRIu64 ", crc %s, "
                 "chaos %s seed %" PRIu64 ")\n",
                 options.requests, options.connections, options.window,
                 data::to_string(task), pool.size(), options.base_seed,
                 options.crc ? "on" : "off",
                 options.chaos.to_string().c_str(), options.chaos_seed);

    auto stats = serve::replay(host, static_cast<std::uint16_t>(port), pool,
                               options);
    if (stats.replies == 0) {
      // A replay that served nothing has no latency sample — reporting
      // p99=0 would read as "infinitely fast" in a CI trend. Fail loudly
      // (before fetch_stats: the server may well be the thing that died).
      std::fprintf(stderr,
                   "sparkxd_replay: zero replies served — no latency "
                   "sample to report\n");
      return 1;
    }
    const auto server_stats =
        serve::fetch_stats(host, static_cast<std::uint16_t>(port));

    const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
    const double rps =
        wall_s > 0.0 ? static_cast<double>(stats.replies) / wall_s : 0.0;
    const double p50 = percentile(stats.latency_us, 50.0);
    const double p95 = percentile(stats.latency_us, 95.0);
    const double p99 = percentile(stats.latency_us, 99.0);
    std::fprintf(stderr,
                 "sparkxd_replay: %" PRIu64 " replies in %.3fs — %.0f req/s, "
                 "latency p50=%.0fus p95=%.0fus p99=%.0fus, "
                 "retries=%" PRIu64 " reconnects=%" PRIu64 " dup=%" PRIu64
                 "; server %s\n",
                 stats.replies, wall_s, rps, p50, p95, p99, stats.retries,
                 stats.reconnects, stats.duplicates,
                 serve::format_stats(server_stats).c_str());
    if (options.chaos.any())
      std::fprintf(stderr,
                   "sparkxd_replay: chaos fired %" PRIu64
                   " (torn=%" PRIu64 " drip=%" PRIu64 " stall=%" PRIu64
                   " rst=%" PRIu64 " corrupt=%" PRIu64 ")\n",
                   stats.chaos.total(), stats.chaos.torn, stats.chaos.drip,
                   stats.chaos.stall, stats.chaos.rst, stats.chaos.corrupt);

    if (!json_path.empty()) {
      // Same layout as bench_common's BenchReport (schema
      // "sparkxd-bench-v1") so the CI trend tooling reads one format.
      json::Writer w;
      w.begin_object();
      w.field("schema", "sparkxd-bench-v1");
      w.field("bench", "serve_replay");
      w.field("scale", workload_scale());
      w.field("seed", options.base_seed);
      w.field("threads", static_cast<std::uint64_t>(options.connections));
      w.key("phases").begin_array();
      w.begin_object();
      w.field("name", "replay");
      w.field("reps", static_cast<std::uint64_t>(stats.replies));
      w.field("total_ns", static_cast<double>(stats.wall_ns));
      w.field("ns_per_rep",
              static_cast<double>(stats.wall_ns) /
                  static_cast<double>(stats.replies ? stats.replies : 1));
      w.key("metrics").begin_object();
      w.field("rps", rps);
      w.field("p50_us", p50);
      w.field("p95_us", p95);
      w.field("p99_us", p99);
      w.field("retries", static_cast<double>(stats.retries));
      w.field("reconnects", static_cast<double>(stats.reconnects));
      w.field("duplicates", static_cast<double>(stats.duplicates));
      w.field("chaos_faults", static_cast<double>(stats.chaos.total()));
      for (const auto& [name, field] : serve::kServerStatsFields)
        w.field(name, static_cast<double>(server_stats.*field));
      w.end_object();
      w.end_object();
      w.end_array();
      w.end_object();
      std::ofstream out(json_path, std::ios::binary);
      if (out) out << w.str() << "\n";
      if (!out) {
        std::fprintf(stderr, "sparkxd_replay: cannot write '%s'\n",
                     json_path.c_str());
        return 1;
      }
    }

    if (want_digest)
      std::printf("serve_digest=%016" PRIx64 " replies=%" PRIu64 "\n",
                  stats.digest, stats.replies);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sparkxd_replay: %s\n", e.what());
    return 1;
  }
}
