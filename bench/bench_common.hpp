#pragma once
// Shared setup for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one table or figure of the paper as
// an ASCII Table, and writes CSV when SPARKXD_CSV_DIR is set. Accuracy experiments honour SPARKXD_SCALE
// (default 1.0, sized for a single-core host) and SPARKXD_SEED.

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/fault_aware.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::bench {

/// The paper's network sizes (number of excitatory neurons).
inline const std::vector<std::size_t> kPaperSizes = {400, 900, 1600, 2500,
                                                     3600};

/// The paper's BER grid for Figs. 8 and 11.
inline const std::vector<double> kPlotBers = {1e-9, 1e-7, 1e-5, 1e-3};

/// Training-set size for a network of `neurons` neurons: larger networks
/// need more presentations to label all receptive fields (the paper trains
/// on the full MNIST training set for every size; we scale down for the
/// single-core host, keeping samples roughly proportional to capacity).
inline std::size_t train_samples_for(std::size_t neurons) {
  return scaled(400 + neurons / 6, 120);
}

inline std::size_t test_samples() { return scaled(150, 60); }

/// Standard network config for a bench run.
inline snn::NetworkConfig net_config(std::size_t neurons) {
  snn::NetworkConfig cfg;
  cfg.n_neurons = neurons;
  cfg.seed = experiment_seed();
  return cfg;
}

/// Prints a one-line header so bench output is self-describing.
inline void banner(const char* experiment, const char* claim) {
  std::printf("\n### SparkXD reproduction — %s\n### paper claim: %s\n",
              experiment, claim);
  std::printf("### scale=%.2f seed=%llu threads=%zu\n", workload_scale(),
              static_cast<unsigned long long>(experiment_seed()),
              thread_count());
}

// ---------------------------------------------------------------------------
// Machine-readable bench reports (schema "sparkxd-bench-v1").
//
// Every bench can collect named phases (wall-clock total + rep count +
// free-form scalar metrics) into a BenchReport and write it as JSON so the
// perf trajectory is tracked by files instead of scraped stdout. The layout
// is stable — fixed key order, std::to_chars numbers via common/json — so
// identical results serialize byte-identically; the wall-clock values
// themselves of course vary run to run (CI archives them as trend
// artifacts, no thresholds). The repository's benchmark with regression
// bounds is perfbench/ (see BENCHMARK.json), not these reports.

/// One timed phase of a bench run.
struct BenchPhase {
  std::string name;
  std::size_t reps = 1;   ///< work items the total covers
  double total_ns = 0.0;  ///< wall clock across all reps
  /// Extra scalar metrics, serialized in insertion order.
  std::vector<std::pair<std::string, double>> metrics;
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  /// Adds a phase and returns it for metric attachment. References stay
  /// valid across later add_phase calls (phases live in a deque).
  BenchPhase& add_phase(std::string name, std::size_t reps,
                        double total_ns) {
    phases_.push_back({std::move(name), reps, total_ns, {}});
    return phases_.back();
  }

  [[nodiscard]] std::string to_json() const {
    json::Writer w;
    w.begin_object();
    w.field("schema", "sparkxd-bench-v1");
    w.field("bench", bench_);
    w.field("scale", workload_scale());
    w.field("seed", experiment_seed());
    w.field("threads", static_cast<std::uint64_t>(thread_count()));
    w.key("phases").begin_array();
    for (const auto& p : phases_) {
      w.begin_object();
      w.field("name", p.name);
      w.field("reps", static_cast<std::uint64_t>(p.reps));
      w.field("total_ns", p.total_ns);
      w.field("ns_per_rep",
              p.total_ns / static_cast<double>(p.reps ? p.reps : 1));
      w.key("metrics").begin_object();
      for (const auto& [k, v] : p.metrics) w.field(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str() + "\n";
  }

  /// Writes the JSON document to `path`; returns false (with a stderr note)
  /// on I/O failure so benches can exit non-zero.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (out) {
      out << to_json();
      out.flush();  // surface late I/O errors (e.g. ENOSPC) before checking
    }
    if (!out) {
      std::fprintf(stderr, "bench: cannot write JSON report to '%s'\n",
                   path.c_str());
      return false;
    }
    std::printf("JSON report written to %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::deque<BenchPhase> phases_;  ///< stable references for add_phase
};

/// Parses the shared `--json <path>` bench flag; returns nullptr when
/// absent. Exits with code 2 on a missing argument so misuse is loud.
inline const char* json_out_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--json") continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: --json needs a file path\n", argv[0]);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return nullptr;
}

}  // namespace sparkxd::bench
