// ECC-axis ablation: the full pipeline swept across the registered ECC
// schemes on one workload cell.
//
// This bench drives the integrated third axis: one ScenarioMatrix cell per
// scheme (off / parity / secded / hsiao / bch /
// bch-512B), each lowered through placement escalation, the frozen-injection
// scrub, and the decode-latency-aware energy model. One row per scheme shows
// what the code buys (accuracy at the lowest voltage, corrected/detected
// codewords) and what it costs (storage overhead, decode energy, energy
// saving and speedup after the redundancy traffic).
//
// With --json <path> it writes a sparkxd-bench-v1 report (one phase per
// scheme, wall clock + the scalar metrics above) for the CI perf-smoke
// artifacts.

#include <chrono>

#include "bench_common.hpp"
#include "error/ecc_scheme.hpp"
#include "scenario/matrix.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  using namespace sparkxd;
  bench::banner("ECC-axis ablation",
                "stronger codes trade storage and decode effort for "
                "post-correction BER — the third approximation axis beside "
                "voltage and refresh");
  const char* json_path = bench::json_out_path(argc, argv);

  scenario::ScenarioMatrix m;
  m.sizes = {{"tiny", 25, scaled(100, 50), scaled(50, 25), 1}};
  m.geometries = {{"commodity", false}};
  m.error_models = {{"m0", {}}};
  m.ecc_schemes = {
      {"ecc-off", {}},
      {"ecc-parity", {error::EccKind::kParity, 64}},
      {"ecc-secded", {error::EccKind::kSecded, 64}},
      {"ecc-hsiao", {error::EccKind::kHsiao, 64}},
      {"ecc-bch", {error::EccKind::kBch, 64}},
      {"ecc-bch512b", {error::EccKind::kBch, 4096}},
  };
  m.voltages = {1.250, 1.100, 1.025};
  m.seed = experiment_seed();

  const auto scenarios = m.expand();
  bench::BenchReport report("ecc_ablation");
  Table t("ecc_ablation",
          {"scheme", "assigned@1.025V", "overhead", "acc@1.025V", "corrected",
           "detected", "ecc energy [nJ]", "saving@1.025V", "speedup"});
  for (const auto& s : scenarios) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = scenario::run_scenarios({s});
    const double dt_ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const auto& r = results.front().report;
    const auto& low = r.per_voltage.back();
    double overhead = 0.0, ecc_nj = 0.0;
    std::string assigned = "-";
    bool escalated = false;
    for (const auto& ls : low.layers) {
      overhead = ls.ecc_overhead;
      ecc_nj += ls.ecc_energy_nj;
      if (!ls.ecc_scheme.empty()) assigned = ls.ecc_scheme;
      escalated = escalated || ls.ecc_escalated;
    }
    if (escalated) assigned += " (escalated)";
    t.add_row({error::ecc_label(s.ecc), assigned,
               Table::pct(100.0 * overhead, 1),
               Table::num(low.accuracy, 3),
               Table::num(static_cast<double>(low.ecc_corrected), 0),
               Table::num(static_cast<double>(low.ecc_detected), 0),
               Table::num(ecc_nj, 1), Table::pct(low.saving_pct),
               Table::num(low.speedup, 3)});
    auto& phase = report.add_phase(error::ecc_label(s.ecc), 1, dt_ns);
    phase.metrics.emplace_back("storage_overhead", overhead);
    phase.metrics.emplace_back("accuracy_low_v", low.accuracy);
    phase.metrics.emplace_back("energy_nj", low.energy_nj);
    phase.metrics.emplace_back("ecc_energy_nj", ecc_nj);
    phase.metrics.emplace_back("ecc_corrected",
                               static_cast<double>(low.ecc_corrected));
    phase.metrics.emplace_back("ecc_detected",
                               static_cast<double>(low.ecc_detected));
    phase.metrics.emplace_back("saving_pct", low.saving_pct);
    phase.metrics.emplace_back("speedup", low.speedup);
  }
  t.emit();
  if (json_path != nullptr && !report.write(json_path)) return 1;
  return 0;
}
