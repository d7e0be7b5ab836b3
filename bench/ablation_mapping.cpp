// Ablation A: what each ingredient of the DRAM mapping buys.
// Compares, at 1.025 V / module BER 1e-3:
//   * baseline mapping  (sequential bank fill, error-oblivious)
//   * Algorithm 2       (safe subarrays + row-hit + bank rotation)
//   * row-scatter       (adversarial: consecutive chunks in different rows
//                        of the same bank -> all conflicts)
// on row-hit rate, simulated time, DRAM energy, and expected bit errors in
// the stored weights.

#include "bench_common.hpp"
#include "dram/controller.hpp"
#include "energy/power_model.hpp"
#include "energy/voltage_model.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Ablation — mapping policies",
                "Algorithm 2 keeps the baseline's row hits, adds safety; "
                "a row-scattering layout pays conflict energy");
  const auto g = dram::Geometry::lpddr3_4gb();
  const std::uint64_t seed = experiment_seed();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = 784 * 900;
  const double ber = 1e-3;

  const auto base = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto prop = mapping::sparkxd_placement_layers(g, profile, ber, {ber},
                                                      {n_weights})[0];
  // Adversarial scatter: stride chunks across rows of one bank.
  error::ChunkPlacement scatter;
  const std::size_t chunks = mapping::chunks_for_weights(g, n_weights);
  scatter.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    dram::Address a;
    a.subarray = static_cast<std::uint32_t>((c / g.rows_per_subarray) %
                                            g.subarrays_per_bank);
    a.row = static_cast<std::uint32_t>(c % g.rows_per_subarray);
    a.column = static_cast<std::uint32_t>(
        ((c / (g.rows_per_bank())) * g.burst_columns) % g.columns_per_row);
    scatter.push_back(a);
  }

  const energy::VoltageModel vm;
  const energy::PowerModel pm;
  const double v = 1.025;
  dram::Controller controller(g, vm.derive_timings(v));

  Table t("ablation_mapping",
          {"mapping", "hit rate", "conflicts", "time [us]", "energy [uJ]",
           "expected weight-bit errors"});
  const auto report = [&](const char* name,
                          const error::ChunkPlacement& placement) {
    const auto stats = controller.run(
        mapping::streaming_read_trace(g, placement, n_weights),
        core::kBurstArrivalNs);
    const auto e = pm.trace_energy(stats, v);
    const auto inj = error::ErrorInjector::for_weights(g, profile, {}, placement, n_weights,
                                   seed, ber);
    t.add_row({name, Table::num(stats.hit_rate(), 4),
               std::to_string(stats.conflicts),
               Table::num(stats.total_time_ns / 1000.0, 1),
               Table::num(e.total_nj() / 1000.0, 1),
               Table::num(inj.expected_flips(ber), 0)});
  };
  report("baseline (sequential)", base);
  report("SparkXD (Algorithm 2)", prop.chunks);
  report("row-scatter (adversarial)", scatter);
  t.emit();

  // Sensitivity: how much safe capacity the module offers as the die's
  // subarray-to-subarray variation (sigma) grows.
  Table s("ablation_mapping_sigma",
          {"subarray sigma", "safe subarrays @BER_th=BER",
           "SparkXD expected errors / baseline expected errors"});
  for (const double sigma : {0.2, 0.5, 0.8, 1.2}) {
    const error::SubarrayProfile p2(g, seed, sigma);
    const auto prop2 =
        mapping::sparkxd_placement_layers(g, p2, ber, {ber}, {n_weights})[0];
    const auto inj_b = error::ErrorInjector::for_weights(g, p2, {}, base, n_weights, seed, ber);
    const auto inj_p = error::ErrorInjector::for_weights(g, p2, {}, prop2.chunks, n_weights,
                                     seed, ber);
    s.add_row({Table::num(sigma, 1),
               std::to_string(prop2.safe_subarrays),
               Table::num(inj_p.expected_flips(ber) /
                              std::max(1.0, inj_b.expected_flips(ber)),
                          3)});
  }
  s.emit();
  return 0;
}
