#pragma once
// Shared plumbing of the SparkXD benchmark: clocks, order statistics, the
// metric record each workload fills, and the reference-digest table.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Runs f() and adds its wall time in milliseconds to `acc_ms`.
template <typename F>
decltype(auto) timed_ms(double& acc_ms, F&& f) {
  struct Add {
    double& acc;
    Clock::time_point t0 = Clock::now();
    ~Add() { acc += seconds_since(t0) * 1e3; }
  } add{acc_ms};
  return f();
}

/// Interpolated median / percentile (p in [0, 100]); input must be
/// non-empty.
double median(const std::vector<double>& v);
double pct(const std::vector<double>& v, double p);

/// The statistic end-to-end latencies are reported as: the lower quartile
/// over a run's rounds. A shared 4-vCPU virtual machine was measured to
/// flip between a fast and a slow state (up to 2x) within seconds and to
/// stay slow for 30 s and more (other tenants); the median of a run follows
/// those swings, the lower quartile estimates the uncontended latency and
/// repeats from run to run.
/// Fixed deterministic work (a scenario, a set-up, a burst drain) can only
/// be slowed down by the host, so it is reported as its fastest repetition.
inline double best_quartile(const std::vector<double>& v) {
  return pct(v, 25.0);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// CPU placement. On a shared virtual machine each vCPU was measured to
/// flip on its own between a fast and a slow state (1.5-1.6x, spells of
/// seconds to tens of seconds), so a run pinned to one CPU can spend all of
/// its time in a slow spell. Workloads therefore move their measured work
/// from CPU to CPU round by round and report the fastest repetition.
///
/// The CPUs this process may run on (its affinity mask), in order.
const std::vector<int>& allowed_cpus();
/// Pins thread `tid` (0: the calling thread) to `cpus`; a failure (or an
/// empty list) leaves its placement as it was.
void pin_thread(int tid, const std::vector<int>& cpus);
/// The allowed CPU `k` places after the first, wrapping around.
inline std::vector<int> cpu_at(std::size_t k) {
  const auto& cpus = allowed_cpus();
  return {cpus[k % cpus.size()]};
}

/// FNV-1a 64 of a string (reference digests are stored as this hash).
std::uint64_t fnv1a(const std::string& s);

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root (holds src/, tests/golden/)
  std::string reference;   ///< reference digest table
};

/// What one run reports: operation counts plus named metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Counts `n` failed operations and reports why on stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
};

/// A metric of BENCHMARK.json: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// What a run prints: every end-to-end metric without --trace, every
/// per-layer metric with it.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// Reference digests, keyed by (scenario seed, scenario name).
class ReferenceTable {
 public:
  /// Reads "<seed> <scenario> <fnv64 hex>" lines; throws when unreadable.
  static ReferenceTable load(const std::string& path);
  /// nullptr when the table holds no entry for the pair.
  [[nodiscard]] const std::uint64_t* find(std::uint64_t seed,
                                          const std::string& scenario) const;
  void put(std::uint64_t seed, const std::string& scenario,
           std::uint64_t hash);
  void save(const std::string& path) const;

 private:
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> entries_;
};

/// The scenario seed a workload seed selects. Reference digests exist for
/// kSeedSlots consecutive seeds starting at the registry seed (42), so any
/// workload seed maps onto a checked input.
inline constexpr std::uint64_t kRegistrySeed = 42;
inline constexpr std::uint64_t kSeedSlots = 16;
inline std::uint64_t scenario_seed(std::uint64_t workload_seed) {
  return kRegistrySeed + workload_seed % kSeedSlots;
}

/// Workload entry points (each fills `out` and returns normally; a wrong
/// output is recorded through Outcome::fail, never thrown).
void run_pipeline_workload(const Options& opt, Outcome& out);
void run_serve_workload(const Options& opt, Outcome& out);

/// Regenerates the reference table for every seed slot (all threads).
void write_reference(const Options& opt, const std::string& path);

}  // namespace perfbench
