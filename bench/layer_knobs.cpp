// Per-layer operating-point search: the (voltage x refresh x ECC) energy
// split vs the best uniform assignment.
//
// Runs the deep 2-layer smoke workload (smoke-digits-deep) with the knob
// search enabled and publishes, per layer, the chosen triple with the
// evaluation that justified it, plus the uniform baseline — the
// minimum-energy single triple feasible for every layer. The acceptance
// property of the per-layer assignment is enforced by the exit code: at the
// same accuracy floor, the per-layer total must never exceed the uniform
// baseline (each layer minimizes over a superset of the shared choice).
//
// With --json <path> it writes a sparkxd-bench-v1 report (one phase per
// layer plus the totals) for the CI perf-smoke artifacts.
//
// Exit codes: 0 ok, 1 per-layer total exceeds the uniform baseline (or the
// search went missing), 2 bad usage.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace sparkxd;
  bench::banner("per-layer operating points",
                "each layer picks its own (voltage, refresh, ECC) triple at "
                "the learned tolerance — the split vs one uniform choice");
  const char* json_path = bench::json_out_path(argc, argv);

  const auto* base = scenario::find_scenario("smoke-digits-deep");
  SPARKXD_REQUIRE(base != nullptr, "smoke scenario disappeared");
  scenario::Scenario s = *base;
  s.name += "-knobs";
  s.layer_knobs.enabled = true;
  s.ecc = {error::EccKind::kSecded, 64};  // give the search a real ladder
  s.seed = experiment_seed();

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = scenario::run_scenarios({s});
  const double dt_ns = std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  const auto& r = results.front().report;
  if (!r.layer_knobs.has_value()) {
    std::fprintf(stderr, "layer_knobs: the pipeline ran no knob search\n");
    return 1;
  }
  const auto& k = *r.layer_knobs;

  bench::BenchReport report("layer_knobs");
  Table t("layer_knobs", {"layer", "V", "tREFI x", "ecc", "raw BER",
                          "tolerable", "floor", "energy [nJ]"});
  for (std::size_t l = 0; l < k.layers.size(); ++l) {
    const auto& c = k.layers[l];
    t.add_row({std::to_string(l), Table::num(c.v_supply, 3),
               Table::num(c.refresh_multiplier, 1), c.ecc_scheme,
               Table::sci(c.raw_ber), Table::sci(c.tolerable_ber),
               c.meets_floor ? "yes" : "NO", Table::num(c.energy_nj, 1)});
    auto& phase =
        report.add_phase("layer" + std::to_string(l), 1, dt_ns);
    phase.metrics.emplace_back("v_supply", c.v_supply);
    phase.metrics.emplace_back("refresh_multiplier", c.refresh_multiplier);
    phase.metrics.emplace_back("raw_ber", c.raw_ber);
    phase.metrics.emplace_back("tolerable_ber", c.tolerable_ber);
    phase.metrics.emplace_back("energy_nj", c.energy_nj);
    phase.metrics.emplace_back("meets_floor", c.meets_floor ? 1.0 : 0.0);
    phase.metrics.emplace_back(
        "retention_weak_cells",
        static_cast<double>(c.retention_weak_cells));
  }
  if (k.uniform_feasible)
    t.add_row({"uniform", Table::num(k.uniform.v_supply, 3),
               Table::num(k.uniform.refresh_multiplier, 1),
               k.uniform.ecc_scheme, Table::sci(k.uniform.raw_ber),
               Table::sci(k.uniform.tolerable_ber), "yes",
               Table::num(k.uniform_energy_nj, 1)});
  t.emit();

  const double save_pct =
      k.uniform_feasible && k.uniform_energy_nj > 0.0
          ? 100.0 * (1.0 - k.total_energy_nj / k.uniform_energy_nj)
          : 0.0;
  std::printf("per-layer total %.1f nJ vs uniform %.1f nJ (%.2f%% saved)\n",
              k.total_energy_nj,
              k.uniform_feasible ? k.uniform_energy_nj : 0.0, save_pct);

  auto& totals = report.add_phase("totals", 1, dt_ns);
  totals.metrics.emplace_back("total_energy_nj", k.total_energy_nj);
  totals.metrics.emplace_back("uniform_energy_nj", k.uniform_energy_nj);
  totals.metrics.emplace_back("uniform_feasible",
                              k.uniform_feasible ? 1.0 : 0.0);
  totals.metrics.emplace_back("save_pct", save_pct);

  if (json_path != nullptr && !report.write(json_path)) return 2;
  if (k.uniform_feasible && k.total_energy_nj > k.uniform_energy_nj) {
    std::fprintf(stderr,
                 "layer_knobs: per-layer total %.3f nJ EXCEEDS the uniform "
                 "baseline %.3f nJ — the per-layer assignment must never "
                 "lose to a choice it strictly generalizes\n",
                 k.total_energy_nj, k.uniform_energy_nj);
    return 1;
  }
  return 0;
}
