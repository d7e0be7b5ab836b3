// Pipeline workloads: core::run_pipeline over a fixed set of registry
// scenarios at one thread, seeded from the workload seed.

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/contracts.hpp"
#include "data/dataset.hpp"
#include "pipeline_workload.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

using namespace sparkxd;

namespace {

// The set-up of a pipeline workload (resolving, seeding, validating and
// lowering its scenarios) takes microseconds, so it is timed over batches
// of repetitions (about 10 ms each) and reported per repetition, as the
// fastest batch (it is deterministic work, like a scenario).
constexpr int kSetupBatchesPerRound = 3;
constexpr int kSetupReps = 3000;
// Every scenario runs at least this many times, however fast the host: a
// slow host must not also get fewer tries at its fastest state.
constexpr std::size_t kMinRounds = 6;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPARKXD_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

const std::vector<std::string>& scenario_set(const std::string& workload) {
  // pipeline-train: flat Model-0 scenarios with no ECC and no refresh. The
  // time goes to the SNN: Poisson encoding and the STDP training kernel
  // dominate, weak-cell enumeration is a small share. An encoding or
  // training optimisation shows here; an enumeration or DRAM-side one
  // mostly does not.
  static const std::vector<std::string> train = {
      "digits-medium-commodity-m0", "fashion-medium-commodity-m0",
      "digits-small-commodity-m0", "fashion-small-commodity-m0"};
  // pipeline-axes: one scenario per approximation axis. Stripe error models
  // and retention make weak-cell enumeration a much larger share, and BCH
  // scrub, per-region refresh, per-layer tolerance analysis and the knob
  // search only run here. The SNN does less of the work.
  static const std::vector<std::string> axes = {
      "digits-small-salp-m1",
      "digits-small-commodity-m2",
      "fashion-small-salp-m1-ecc-bch4kb",
      "digits-small-commodity-m0-deep3",
      "digits-small-commodity-m0-relaxed-refresh-32x",
      "smoke-digits-knobs"};
  if (workload == "pipeline-train") return train;
  if (workload == "pipeline-axes") return axes;
  SPARKXD_REQUIRE(false, "not a pipeline workload: " + workload);
  return train;
}

scenario::Scenario seeded_scenario(const std::string& name,
                                   std::uint64_t seed) {
  const auto* s = scenario::find_scenario(name);
  SPARKXD_REQUIRE(s != nullptr, "scenario missing from the registry: " + name);
  scenario::Scenario copy = *s;
  copy.seed = seed;
  return copy;
}

std::uint64_t digest_hash(const scenario::Scenario& s,
                          const core::PipelineReport& report) {
  return fnv1a(scenario::digest({s, report}));
}

bool check_reference(const ReferenceTable& ref, const scenario::Scenario& s,
                     const core::PipelineReport& report, Outcome& out) {
  const std::uint64_t* want = ref.find(s.seed, s.name);
  if (want == nullptr) {
    out.fail("no reference digest for " + s.name + " at seed " +
             std::to_string(s.seed));
    return false;
  }
  if (digest_hash(s, report) != *want) {
    out.fail("digest mismatch for " + s.name + " at seed " +
             std::to_string(s.seed));
    return false;
  }
  return true;
}

namespace {

void measure_end_to_end(const Options& opt,
                        const std::function<void()>& set_up,
                        const std::vector<scenario::Scenario>& scenarios,
                        const std::vector<core::PipelineConfig>& configs,
                        const ReferenceTable& ref, Outcome& out) {
  const std::size_t n = scenarios.size();
  std::vector<std::vector<double>> times(n);
  std::vector<double> setup_s;
  const auto t_start = Clock::now();
  // After kMinRounds, a round starts only if it should end within the run.
  const auto another_round = [&](std::size_t round) {
    const double elapsed = seconds_since(t_start);
    return round < kMinRounds ||
           elapsed + elapsed / static_cast<double>(round) <= opt.seconds;
  };
  for (std::size_t round = 0; another_round(round); ++round) {
    // Set-up batches are spread over the run like the scenarios, on a CPU
    // that is already busy (an idle core starts at a low clock).
    pin_thread(0, cpu_at(round));
    for (int b = 0; b < kSetupBatchesPerRound; ++b) {
      const auto t0 = Clock::now();
      for (int r = 0; r < kSetupReps; ++r) set_up();
      setup_s.push_back(seconds_since(t0) / kSetupReps);
    }
    for (std::size_t i = 0; i < n; ++i) {
      // Scenario i runs on the next CPU each round, so over a run every
      // scenario meets every CPU.
      pin_thread(0, cpu_at(round + i));
      ++out.attempted;
      try {
        const auto t0 = Clock::now();
        const auto report = core::run_pipeline(configs[i]);
        times[i].push_back(seconds_since(t0));
        check_reference(ref, scenarios[i], report, out);
      } catch (const std::exception& e) {
        out.fail(scenarios[i].name + " threw: " + e.what());
      }
    }
  }
  pin_thread(0, allowed_cpus());
  if (out.failed > 0) return;

  // Per-scenario turnaround: the fastest round (deterministic work, see
  // best_quartile). wall_s is their sum, p50_ms their median.
  std::vector<double> turnaround_ms(n);
  double wall_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    turnaround_ms[i] = pct(times[i], 0.0) * 1e3;
    wall_ms += turnaround_ms[i];
    std::printf("  %-48s best %9.2f ms, median %9.2f ms over %zu runs\n",
                scenarios[i].name.c_str(), turnaround_ms[i],
                median(times[i]) * 1e3, times[i].size());
  }
  out.metrics["wall_s"] = wall_ms / 1e3;
  out.metrics["setup_s"] = pct(setup_s, 0.0);
  out.metrics["p50_ms"] = median(turnaround_ms);
}

void measure_layers(const std::vector<scenario::Scenario>& scenarios,
                    const std::vector<core::PipelineConfig>& configs,
                    const ReferenceTable& ref, Outcome& out) {
  Trace total;
  double untraced_ms = 0.0, traced_ms = 0.0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& cfg = configs[i];
    ++out.attempted;
    core::PipelineReport untraced;
    timed_ms(untraced_ms, [&] { untraced = core::run_pipeline(cfg); });
    check_reference(ref, scenarios[i], untraced, out);

    Trace tr;
    snn::TrainedModel improved{snn::Network(cfg.network), {}, 0.0};
    core::PipelineReport traced;
    timed_ms(traced_ms,
             [&] { traced = traced_run_pipeline(cfg, nullptr, tr, &improved); });
    const std::string diff = first_difference(scenarios[i], untraced, traced);
    if (!diff.empty())
      out.fail("traced leg differs from run_pipeline for " +
               scenarios[i].name + ": " + diff);
    for (const auto& [k, v] : tr.m) total.m[k] += v;
    total.stage_ms += tr.stage_ms;

    const auto all = data::make_dataset(
        cfg.task, cfg.train_samples + cfg.test_samples, cfg.seed);
    const auto test = all.drop(cfg.train_samples);
    snn_probes(improved.net, all.images, test.images, cfg.seed, total);
  }
  finish_layer_metrics(total, untraced_ms, traced_ms, out);
}

}  // namespace

void run_pipeline_workload(const Options& opt, Outcome& out) {
  const auto& names = scenario_set(opt.workload);
  const std::uint64_t seed = scenario_seed(opt.seed);
  const auto ref = ReferenceTable::load(opt.reference);

  std::vector<scenario::Scenario> scenarios;
  std::vector<core::PipelineConfig> configs;
  const auto set_up = [&] {
    scenarios.clear();
    configs.clear();
    for (const auto& name : names) {
      auto s = seeded_scenario(name, seed);
      s.validate();
      configs.push_back(s.pipeline_config());
      scenarios.push_back(std::move(s));
    }
  };
  set_up();
  std::printf("workload %s: %zu scenarios at scenario seed %llu\n",
              opt.workload.c_str(), names.size(),
              static_cast<unsigned long long>(seed));

  if (opt.trace) {
    measure_layers(scenarios, configs, ref, out);
  } else {
    measure_end_to_end(opt, set_up, scenarios, configs, ref, out);
  }

  // The smoke scenario at the registry seed must also reproduce the
  // checked-in golden digest byte for byte.
  if (opt.workload == "pipeline-axes") {
    ++out.attempted;
    const auto s = seeded_scenario("smoke-digits-knobs", kRegistrySeed);
    const std::string got =
        scenario::digest({s, core::run_pipeline(s.pipeline_config())});
    const std::string want =
        read_file(opt.root + "/tests/golden/smoke-digits-knobs.digest");
    if (got != want) out.fail("smoke-digits-knobs differs from its golden");
  }
  if (!opt.trace) out.metrics["peak_rss_mb"] = peak_rss_mb();
}

void write_reference(const Options& opt, const std::string& path) {
  std::vector<std::string> names = scenario_set("pipeline-train");
  for (const auto& n : scenario_set("pipeline-axes")) names.push_back(n);
  std::vector<scenario::Scenario> batch;
  for (std::uint64_t slot = 0; slot < kSeedSlots; ++slot)
    for (const auto& n : names)
      batch.push_back(seeded_scenario(n, kRegistrySeed + slot));
  const auto results = scenario::run_scenarios(batch);
  ReferenceTable table;
  for (const auto& r : results) {
    table.put(r.scenario.seed, r.scenario.name,
              digest_hash(r.scenario, r.report));
    if (r.scenario.name == "smoke-digits-knobs" &&
        r.scenario.seed == kRegistrySeed)
      SPARKXD_REQUIRE(
          scenario::digest(r) ==
              read_file(opt.root + "/tests/golden/smoke-digits-knobs.digest"),
          "smoke-digits-knobs no longer matches its golden digest");
  }
  table.save(path);
  std::printf("wrote %zu reference digests to %s\n", results.size(),
              path.c_str());
}

}  // namespace perfbench
