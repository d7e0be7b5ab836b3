// sparkxd_serve — long-lived inference daemon.
//
// Loads a serving artifact (sparkxd_run --export-artifact) once, then
// serves classify requests over the length-prefixed TCP protocol
// (src/serve/protocol.hpp) on --workers engine slots. A lone request is
// classified on the thread that read it; the rest go through an admission
// queue that worker threads drain one request at a time.
// SIGTERM/SIGINT triggers a graceful drain: every admitted request is
// answered, then the process exits 0 with final counters on stderr.
// SIGHUP hot-reloads the artifact file: the new file is loaded and
// validated off to the side, then atomically installed as the next
// generation — in-flight requests finish on the old artifact and no
// connection is dropped. A reload that fails to load keeps the old
// generation serving.
//
//   sparkxd_serve --artifact model.sxda [--port N] [--port-file FILE]
//                 [--workers N] [--max-queue N]
//                 [--read-deadline-ms N]
//                 [--request-deadline-us N] [--max-conns N]
//                 [--watchdog-ms N]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// resolved port as a single decimal line — to a temp file first, then
// rename()d into place, so a poller never reads a half-written file.
//
// Exit codes: 0 clean shutdown, 2 bad usage, 1 startup failure.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "cli_args.hpp"
#include "serve/artifact.hpp"
#include "serve/server.hpp"

namespace {

long long parse_count(const char* what, const char* spec, long long lo,
                      long long hi) {
  return sparkxd::cli::parse_count("sparkxd_serve", what, spec, lo, hi);
}

std::atomic<int> g_signal{0};
std::atomic<bool> g_reload{false};

void on_signal(int sig) {
  if (sig == SIGHUP) {
    g_reload.store(true);
  } else {
    g_signal.store(sig);
  }
}

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sparkxd_serve --artifact FILE [options]\n"
      "  --artifact FILE    serving artifact from sparkxd_run "
      "--export-artifact\n"
      "  --port N           TCP port on 127.0.0.1 (default 0 = ephemeral)\n"
      "  --port-file FILE   write the resolved port to FILE once listening\n"
      "                     (temp file + atomic rename)\n"
      "  --workers N        engine slots, and worker threads draining the\n"
      "                     queue; a lone request runs on its connection's\n"
      "                     reader (default 1)\n"
      "  --max-queue N      admission-queue bound; overflowing classify\n"
      "                     requests get a kQueueFull reply instead of\n"
      "                     growing memory (default 4096)\n"
      "  --read-deadline-ms N   evict a connection whose frame stalls\n"
      "                     mid-read past N ms (slow-loris defense;\n"
      "                     default 5000, 0 disables)\n"
      "  --request-deadline-us N  answer kDeadlineExceeded instead of\n"
      "                     classifying a request that queued longer than\n"
      "                     N us (default 0 = disabled)\n"
      "  --max-conns N      close accepts beyond N live connections\n"
      "                     (default 0 = unlimited)\n"
      "  --watchdog-ms N    log + count a slot stuck on one request past\n"
      "                     N ms (default 10000, 0 disables)\n"
      "  --help             this message\n"
      "\nSIGTERM/SIGINT drains admitted requests, answers them, and exits "
      "0.\nSIGHUP reloads the artifact file as a new generation without "
      "dropping connections.\n");
}

/// Publishes the port atomically: write + flush a sibling temp file, then
/// rename() over the destination. A reader either sees no file or a
/// complete one, never a torn write.
bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream pf(tmp, std::ios::trunc);
    pf << port << "\n";
    pf.close();
    if (!pf) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparkxd;

  std::string artifact_path, port_file;
  serve::ServerConfig config;
  config.read_deadline_ms = 5000;
  config.watchdog_stall_ms = 10'000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sparkxd_serve: %s needs an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--artifact") {
      artifact_path = next("--artifact");
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(
          parse_count("--port", next("--port"), 0, 65535));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--workers") {
      config.workers = static_cast<std::size_t>(
          parse_count("--workers", next("--workers"), 1, 4096));
    } else if (arg == "--max-queue") {
      config.max_queue = static_cast<std::size_t>(
          parse_count("--max-queue", next("--max-queue"), 1, 1 << 24));
    } else if (arg == "--read-deadline-ms") {
      config.read_deadline_ms = static_cast<std::uint64_t>(parse_count(
          "--read-deadline-ms", next("--read-deadline-ms"), 0, 3'600'000));
    } else if (arg == "--request-deadline-us") {
      config.request_deadline_us = static_cast<std::uint64_t>(
          parse_count("--request-deadline-us", next("--request-deadline-us"),
                      0, 3'600'000'000ll));
    } else if (arg == "--max-conns") {
      config.max_conns = static_cast<std::size_t>(
          parse_count("--max-conns", next("--max-conns"), 0, 1 << 20));
    } else if (arg == "--watchdog-ms") {
      config.watchdog_stall_ms = static_cast<std::uint64_t>(
          parse_count("--watchdog-ms", next("--watchdog-ms"), 0, 3'600'000));
    } else {
      std::fprintf(stderr, "sparkxd_serve: unknown option '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  if (artifact_path.empty()) {
    std::fprintf(stderr, "sparkxd_serve: --artifact is required\n");
    print_usage(stderr);
    return 2;
  }

  try {
    auto artifact = serve::load_artifact_shared(artifact_path);
    serve::Server server(artifact, config);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGHUP, on_signal);
    server.start();
    std::fprintf(stderr,
                 "sparkxd_serve: serving scenario '%s' on 127.0.0.1:%u "
                 "(%zu workers, V=%.4f, BER=%.3e)\n",
                 artifact->scenario.c_str(), server.port(), config.workers,
                 artifact->v_supply, artifact->module_ber);
    artifact.reset();  // the server owns its generations from here on
    if (!port_file.empty() && !write_port_file(port_file, server.port())) {
      std::fprintf(stderr, "sparkxd_serve: cannot write port file '%s'\n",
                   port_file.c_str());
      return 1;
    }

    while (g_signal.load() == 0) {
      if (g_reload.exchange(false)) {
        // Load + validate off to the side; only a good artifact is swapped
        // in. In-flight requests finish on the old generation either way.
        try {
          server.reload(serve::load_artifact_shared(artifact_path));
          std::fprintf(
              stderr,
              "sparkxd_serve: reloaded '%s' as generation %llu\n",
              artifact_path.c_str(),
              static_cast<unsigned long long>(server.generation()));
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "sparkxd_serve: reload failed (%s) — keeping "
                       "generation %llu\n",
                       e.what(),
                       static_cast<unsigned long long>(server.generation()));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "sparkxd_serve: signal %d, draining\n",
                 g_signal.load());
    server.request_stop();
    server.wait();

    std::fprintf(stderr, "sparkxd_serve: drained — %s\n",
                 serve::format_stats(server.stats()).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sparkxd_serve: %s\n", e.what());
    return 1;
  }
}
