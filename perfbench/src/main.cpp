// sparkxd_perfbench — the SparkXD benchmark binary (driven by run.py).
//
//   sparkxd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--root DIR] [--reference FILE]
//   sparkxd_perfbench --write-reference FILE [--root DIR]
//
// Workloads: pipeline-train, pipeline-axes (pipeline_workload.cpp) and
// serve-open (serve_workload.cpp). Without --trace 1 a run prints every
// end-to-end metric (host time, never simulated time); with it, a separate
// traced leg prints every per-layer metric, timed around calls into each
// module's public functions. Simulated results are the correctness check:
// every scenario digest must match the reference table, every reply the
// serial engine. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok, 1 a wrong or failed operation, 2 bad usage or host.

#include <sched.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "pipeline_workload.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.make_dataset_ms", "ms"},
    {"snn.train_and_label_ms", "ms"},
    {"snn.evaluate_ms", "ms"},
    {"snn.encode_step_ns", "ns"},
    {"snn.input_spikes_per_step", "count"},
    {"snn.infer_us_per_sample", "us"},
    {"core.improve_error_tolerance_ms", "ms"},
    {"core.analyze_layer_tolerance_ms", "ms"},
    {"core.evaluate_corrupted_ms", "ms"},
    {"core.mc_trials", "count"},
    {"core.assign_layer_knobs_ms", "ms"},
    {"error.profile_ms", "ms"},
    {"error.injector_build_ms", "ms"},
    {"error.injector_builds", "count"},
    {"error.candidates", "count"},
    {"error.freeze_ms", "ms"},
    {"error.ecc_encode_ms", "ms"},
    {"error.ecc_codewords", "count"},
    {"error.ecc_corrected", "count"},
    {"error.ecc_detected", "count"},
    {"mapping.placement_ms", "ms"},
    {"dram.trace_build_ms", "ms"},
    {"dram.controller_run_ms", "ms"},
    {"dram.accesses", "count"},
    {"dram.row_hits", "count"},
    {"dram.refreshes", "count"},
    {"dram.ns_per_access", "ns"},
    {"energy.trace_energy_ms", "ms"},
    {"serve.classify_us_p50", "us"},
    {"serve.classify_us_p99", "us"},
    {"serve.inject_us", "us"},
    {"serve.infer_us", "us"},
    {"serve.revert_us", "us"},
    {"serve.flips", "count"},
    {"serve.flips_per_request", "count"},
    {"serve.wait_us_p50_r500", "us"},
    {"serve.p50_ms_r2000", "ms"},
    {"serve.p99_ms_r500", "ms"},
    {"serve.p99_ms_r2000", "ms"},
    {"serve.max_rps_p99_5ms", "1/s"},
    {"serve.batch_mean", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.enumeration_pct", "%"},
    {"trace.training_pct", "%"},
};

double median(const std::vector<double>& v) { return pct(v, 50.0); }
double pct(const std::vector<double>& v, double p) {
  return sparkxd::percentile(v, p);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    if (v.empty()) v.push_back(0);
    return v;
  }();
  return cpus;
}

void pin_thread(int tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(tid, sizeof set, &set);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Outcome::fail(const std::string& why, std::uint64_t n) {
  failed += n;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

ReferenceTable ReferenceTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  ReferenceTable t;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    std::string name, hex;
    if (!(ls >> seed >> name >> hex))
      throw std::runtime_error("malformed line in " + path + ": " + line);
    t.put(seed, name, std::stoull(hex, nullptr, 16));
  }
  return t;
}

const std::uint64_t* ReferenceTable::find(std::uint64_t seed,
                                          const std::string& scenario) const {
  const auto it = entries_.find({seed, scenario});
  return it == entries_.end() ? nullptr : &it->second;
}

void ReferenceTable::put(std::uint64_t seed, const std::string& scenario,
                         std::uint64_t hash) {
  entries_[{seed, scenario}] = hash;
}

void ReferenceTable::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# FNV-1a 64 of scenario::digest, per (scenario seed, scenario).\n"
         "# Regenerate: sparkxd_perfbench --write-reference FILE\n";
  for (const auto& [key, hash] : entries_) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    out << key.first << ' ' << key.second << ' ' << hex << '\n';
  }
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

void finish_layer_metrics(const Trace& trace, double untraced_ms,
                          double traced_ms, Outcome& out) {
  const auto get = [&](const char* name) {
    const auto it = trace.m.find(name);
    return it == trace.m.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  for (const MetricSpec& spec : kPerLayer)
    out.metrics[spec.name] = get(spec.name);
  const double steps = get("snn.encode_steps");
  out.metrics["snn.encode_step_ns"] = ratio(get("snn.encode_ms") * 1e6, steps);
  out.metrics["snn.input_spikes_per_step"] =
      ratio(get("snn.input_spikes"), steps);
  out.metrics["snn.infer_us_per_sample"] =
      ratio(get("snn.infer_ms") * 1e3, get("snn.infer_samples"));
  out.metrics["dram.ns_per_access"] =
      ratio(get("dram.controller_run_ms") * 1e6, get("dram.accesses"));
  out.metrics["trace.coverage"] = ratio(trace.stage_ms, untraced_ms);
  out.metrics["trace.overhead_pct"] =
      100.0 * ratio(traced_ms - untraced_ms, untraced_ms);
  out.metrics["trace.enumeration_pct"] =
      100.0 * ratio(get("error.injector_build_ms"), trace.stage_ms);
  out.metrics["trace.training_pct"] =
      100.0 * ratio(get("snn.train_and_label_ms") +
                        get("core.improve_error_tolerance_ms"),
                    trace.stage_ms);
}

}  // namespace perfbench

namespace {

using perfbench::MetricSpec;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sparkxd_perfbench: %s\n"
               "usage: sparkxd_perfbench --workload pipeline-train|"
               "pipeline-axes|serve-open --seed N --seconds S --trace 0|1\n"
               "                         [--root DIR] [--reference FILE]\n"
               "       sparkxd_perfbench --write-reference FILE [--root DIR]\n",
               why);
  std::exit(2);
}

void print_result(const Outcome& out, const std::vector<MetricSpec>& specs) {
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    json += first ? "" : ", ";
    json += std::string("\"") + spec.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Run with address-space randomisation off (re-exec once), so every run
  // of one build has the same memory layout: layout-dependent cache
  // effects otherwise make microsecond timings differ from run to run.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(persona | ADDR_NO_RANDOMIZE) != -1)
    execv("/proc/self/exe", argv);  // returns only on failure: run as is

  Options opt;
  std::string write_reference;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0.0 && opt.seconds <= 120.0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else if (arg == "--root") {
        opt.root = val;
      } else if (arg == "--reference") {
        opt.reference = val;
      } else if (arg == "--write-reference") {
        write_reference = val;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  // Host guard: measure only an optimised build, on one pipeline thread.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "sparkxd_perfbench: refusing a %s build; configure "
                         "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "untyped" : build_type.c_str());
    return 2;
  }
  setenv("SPARKXD_THREADS", "1", 1);

  try {
    if (!write_reference.empty()) {
      unsetenv("SPARKXD_THREADS");  // digests are thread-count invariant
      perfbench::write_reference(opt, write_reference);
      return 0;
    }
    const bool pipeline =
        opt.workload == "pipeline-train" || opt.workload == "pipeline-axes";
    if (!pipeline && opt.workload != "serve-open")
      usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace)
      usage("--seed, --seconds (0 < S <= 120) and --trace are required");
    if (opt.reference.empty())
      opt.reference = opt.root + "/perfbench/reference/digests.txt";

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u build=%s SPARKXD_THREADS=1\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                std::thread::hardware_concurrency(), build_type.c_str());
    Outcome out;
    if (pipeline)
      perfbench::run_pipeline_workload(opt, out);
    else
      perfbench::run_serve_workload(opt, out);
    const auto& specs = opt.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
    for (const MetricSpec& spec : specs) {
      const auto it = out.metrics.find(spec.name);
      if (out.failed == 0 &&
          (it == out.metrics.end() || !std::isfinite(it->second)))
        out.fail(std::string("metric ") + spec.name + " was not measured");
    }
    std::fflush(stderr);
    print_result(out, specs);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sparkxd_perfbench: %s\n", e.what());
    return 2;
  }
}
