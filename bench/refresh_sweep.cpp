// Refresh-multiplier sweep: the second approximation axis, end to end.
//
// Runs the tiny golden workload once per refresh policy — legacy
// (unsimulated), the nominal cadence, and a ladder of relaxed-refresh
// multipliers — and prints, at the lowest evaluated voltage, the REF count,
// refresh energy, total energy/saving, the retention-failure weak cells the
// relaxed cadence introduces, and the accuracy the fault-aware model holds
// against them. This is the EDEN/EnforceSNN trade: each doubling of the
// refresh interval halves refresh energy while pushing more weak retention
// cells into the error budget.

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Refresh-multiplier sweep",
                "relaxing the refresh cadence cuts refresh energy while "
                "fault-aware training absorbs the retention errors "
                "(EDEN-style second approximation axis)");

  const auto* base = scenario::find_scenario("smoke-digits-m0");
  SPARKXD_REQUIRE(base != nullptr, "smoke scenario missing from registry");

  std::vector<scenario::Scenario> sweep;
  const auto add = [&](const char* name, dram::RefreshPolicy policy) {
    scenario::Scenario s = *base;
    s.name = name;
    s.description = "refresh sweep point";
    s.seed = experiment_seed();
    s.refresh = policy;
    sweep.push_back(std::move(s));
  };
  add("sweep-ref-legacy", dram::RefreshPolicy::disabled());
  add("sweep-ref-1x", dram::RefreshPolicy::nominal());
  for (const double m : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
    add(("sweep-ref-" + scenario::refresh_label(dram::RefreshPolicy::reduced(m)))
            .c_str(),
        dram::RefreshPolicy::reduced(m));

  const auto results = scenario::run_scenarios(sweep);

  const energy::PowerModel power_model;
  Table t("refresh_sweep",
          {"refresh", "REFs@lowV", "refresh_nJ", "energy_nJ", "saving",
           "ret_weak_cells", "acc@lowV"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& low = r.report.per_voltage.back();
    // Refresh energy of the simulated REF commands at this voltage (the
    // legacy row charges the makespan-based estimate inside energy_nj and
    // counts no REFs).
    const double refresh_nj =
        power_model.region_refresh_energy_nj(low.refreshes, 1.0, low.v_supply);
    t.add_row({i == 0 ? std::string("legacy")
                      : scenario::refresh_label(r.scenario.refresh),
               std::to_string(low.refreshes),
               r.scenario.refresh.simulated() ? Table::num(refresh_nj, 2)
                                              : std::string("est"),
               Table::num(low.energy_nj, 1), Table::pct(low.saving_pct),
               std::to_string(low.retention_weak_cells),
               Table::num(low.accuracy, 3)});
  }
  t.emit();
  return 0;
}
