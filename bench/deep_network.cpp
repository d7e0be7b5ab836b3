// Deep-network phase bench: the layer-stack pipeline at depths 1..3.
//
// Runs the tiny golden digits workload as the flat single-layer network and
// as 2-/3-layer stacks, and reports per depth the wall clock of each
// pipeline phase (train / fault-aware training incl. the per-layer
// tolerance analysis / per-voltage sweep), the per-layer BER_th vector the
// tolerance analysis produced, and the lowest-voltage accuracy/energy.
// Depth multiplies the tolerance-analysis and mapping work (one analysis
// and one placement per layer) while the added hidden layers keep the
// weight volume — and so the DRAM energy — in the same regime; this bench
// tracks that cost structure. Emits the sparkxd-bench-v1 JSON via --json.

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace sparkxd;
  bench::banner("Deep-network phase breakdown",
                "per-layer tolerance analysis and per-layer error-aware "
                "mapping generalize the Fig. 7 flow to layer stacks "
                "(EnforceSNN-style per-layer BER thresholds)");

  const auto* base = scenario::find_scenario("smoke-digits-m0");
  SPARKXD_REQUIRE(base != nullptr, "smoke scenario missing from registry");

  struct Depth {
    const char* name;
    std::vector<std::size_t> hidden;
  };
  const std::vector<Depth> depths = {
      {"flat", {}}, {"deep2", {48}}, {"deep3", {48, 32}}};

  std::vector<scenario::Scenario> sweep;
  for (const auto& d : depths) {
    scenario::Scenario s = *base;
    s.name = std::string("bench-") + d.name;
    s.description = "deep-network bench point";
    s.seed = experiment_seed();
    s.network.hidden_neurons = d.hidden;
    sweep.push_back(std::move(s));
  }

  const auto results = scenario::run_scenarios(sweep);

  bench::BenchReport report("deep_network");
  Table t("deep_network",
          {"stack", "train_ms", "fault+tol_ms", "sweep_ms", "layer_ber_th",
           "acc@lowV", "energy@lowV"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& tm = r.report.timings;
    const auto& low = r.report.per_voltage.back();
    std::string berths;
    for (std::size_t l = 0; l < r.report.layer_ber_th.size(); ++l) {
      if (l != 0) berths += "/";
      berths += Table::sci(r.report.layer_ber_th[l], 0);
    }
    t.add_row({depths[i].name, Table::num(tm.train_ns / 1e6, 1),
               Table::num(tm.fault_training_ns / 1e6, 1),
               Table::num(tm.sweep_ns / 1e6, 1), berths,
               Table::num(low.accuracy, 3), Table::num(low.energy_nj, 1)});

    auto& phase = report.add_phase(depths[i].name, 1, tm.total_ns);
    phase.metrics.emplace_back("train_ns", tm.train_ns);
    phase.metrics.emplace_back("fault_training_ns", tm.fault_training_ns);
    phase.metrics.emplace_back("sweep_ns", tm.sweep_ns);
    phase.metrics.emplace_back(
        "n_layers", static_cast<double>(r.report.layer_ber_th.size()));
    phase.metrics.emplace_back("accuracy_low_v", low.accuracy);
    phase.metrics.emplace_back("energy_nj_low_v", low.energy_nj);
  }
  t.emit();

  if (const char* path = bench::json_out_path(argc, argv))
    if (!report.write(path)) return 1;
  return 0;
}
