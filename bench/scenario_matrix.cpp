// Scenario-matrix sweep: the CLI's engine driven as a bench.
//
// Expands a tiny ScenarioMatrix (both tasks × commodity/SALP × Model-0/1)
// and runs the batch through scenario::run_scenarios — the same path
// `sparkxd_run` and the golden harness use — printing one row per scenario.
// This is the grid view the paper's Figs. 11-12 aggregate: accuracy
// resilience and energy saving per workload cell, plus what SALP buys.
//
// Wall-clock scales with SPARKXD_THREADS: scenarios fan out across workers
// (nested pipeline parallelism runs inline), so on a multi-core host the
// whole grid costs about one scenario.

#include <chrono>

#include "bench_common.hpp"
#include "scenario/matrix.hpp"
#include "scenario/runner.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Scenario matrix sweep",
                "SparkXD holds accuracy within the bound while saving "
                "DRAM energy across workloads, organizations, and error "
                "models (Figs. 11-12)");

  scenario::ScenarioMatrix m;
  m.tasks = {data::Task::kDigits, data::Task::kFashion};
  m.sizes = {{"tiny", 25, scaled(100, 50), scaled(50, 25), 1}};
  m.geometries = {{"commodity", false}, {"salp", true}};
  error::ErrorModelSpec m1;
  m1.kind = error::ErrorModelKind::kModel1Bitline;
  m.error_models = {{"m0", {}}, {"m1", m1}};
  m.voltages = {1.250, 1.100, 1.025};
  m.seed = experiment_seed();

  const auto scenarios = m.expand();
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = scenario::run_scenarios(scenarios);
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  Table t("scenario_matrix",
          {"scenario", "baseline", "improved", "BER_th", "acc@1.025V",
           "saving@1.025V", "speedup"});
  for (const auto& r : results) {
    const auto& low = r.report.per_voltage.back();
    t.add_row({r.scenario.name, Table::num(r.report.baseline_accuracy, 3),
               Table::num(r.report.improved_accuracy, 3),
               Table::sci(r.report.ber_th), Table::num(low.accuracy, 3),
               Table::pct(low.saving_pct), Table::num(low.speedup, 3)});
  }
  t.emit();
  std::printf("%zu scenarios in %.2f s (%zu threads)\n", results.size(), dt,
              thread_count());
  return 0;
}
