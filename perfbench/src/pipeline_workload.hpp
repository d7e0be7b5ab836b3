#pragma once
// The pipeline side of the benchmark: the two scenario sets, the digest
// check against the reference table, and the traced recomposition of
// core::run_pipeline used by the per-layer leg.

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace core = sparkxd::core;
namespace scenario = sparkxd::scenario;
namespace snn = sparkxd::snn;

/// Registry scenarios of a pipeline workload, in run order.
const std::vector<std::string>& scenario_set(const std::string& workload);

/// The registry scenario `name` with its seed replaced; throws if unknown.
scenario::Scenario seeded_scenario(const std::string& name,
                                   std::uint64_t seed);

/// FNV-1a of scenario::digest for one result.
std::uint64_t digest_hash(const scenario::Scenario& s,
                          const core::PipelineReport& report);

/// Checks one result against the reference table; records a failure in
/// `out` on a mismatch or a missing entry. Returns true when it matches.
bool check_reference(const ReferenceTable& ref, const scenario::Scenario& s,
                     const core::PipelineReport& report, Outcome& out);

/// Per-layer accumulator of the traced leg. `stage` times a top-level call
/// of the pipeline (these sum to the traced wall, which trace.coverage
/// compares with an untraced run); `probe` times a call the pipeline makes
/// inside another stage, so it is reported but not summed.
struct Trace {
  std::map<std::string, double> m;
  double stage_ms = 0.0;

  template <typename F>
  decltype(auto) stage(const char* name, F&& f) {
    struct Add {
      Trace& t;
      const char* name;
      Clock::time_point t0 = Clock::now();
      ~Add() {
        const double ms = seconds_since(t0) * 1e3;
        t.m[name] += ms;
        t.stage_ms += ms;
      }
    } add{*this, name};
    return f();
  }
  template <typename F>
  decltype(auto) probe(const char* name, F&& f) {
    return timed_ms(m[name], f);
  }
  void count(const char* name, double n) { m[name] += n; }
};

/// core::run_pipeline re-composed from the public stage functions, in the
/// same order and with the same Rng discipline, timing each call. Requires
/// SPARKXD_THREADS=1 (the sweep runs its voltages in order). The report must
/// be bit-equal to run_pipeline's; `first_difference` checks that. When
/// `improved` is non-null it receives the fault-aware model (untimed).
core::PipelineReport traced_run_pipeline(const core::PipelineConfig& cfg,
                                         core::ArtifactState* artifact,
                                         Trace& trace,
                                         snn::TrainedModel* improved = nullptr);

/// Empty when the two reports agree bit for bit on every per-voltage
/// accuracy and energy and on the scenario digest; otherwise names the
/// first field that differs.
std::string first_difference(const scenario::Scenario& s,
                             const core::PipelineReport& a,
                             const core::PipelineReport& b);

/// Times PoissonEncoder::set_image + step over `images` (timesteps steps
/// each) and clean Network::infer over `infer_images` on `net`, adding
/// snn.encode_* and snn.infer_* figures to the trace.
void snn_probes(const snn::Network& net,
                const std::vector<std::vector<float>>& images,
                const std::vector<std::vector<float>>& infer_images,
                std::uint64_t seed, Trace& trace);

/// Turns the accumulated raw trace into the per-layer metrics of `out`:
/// per-unit figures (ns per step, us per sample, ns per access), stage
/// shares, trace.coverage = stage time / `untraced_ms` and
/// trace.overhead_pct = (`traced_ms` - `untraced_ms`) / `untraced_ms`.
/// Every per-layer metric is emitted; a layer the workload bypasses reads 0.
void finish_layer_metrics(const Trace& trace, double untraced_ms,
                          double traced_ms, Outcome& out);

}  // namespace perfbench
