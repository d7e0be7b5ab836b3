// Fig. 12a: DRAM access energy of one inference — baseline SNN with
// accurate DRAM (1.350 V, baseline mapping) vs SparkXD-improved SNN with
// approximate DRAM (Algorithm-2 mapping) across supply voltages and
// network sizes.
// Paper: reducing V_supply to 1.325/1.250/1.175/1.100/1.025 V saves
// 3.84/13.33/22.69/31.12/39.46 % on average across sizes.

#include "bench_common.hpp"
#include "energy/ber_model.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Fig. 12a — DRAM energy per inference",
                "~3.8/13.3/22.7/31.1/39.5 % saving at the five reduced "
                "voltages, across network sizes");
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, experiment_seed());
  const energy::BerModel bm;

  Table t("fig12a_dram_energy",
          {"network", "V_supply [V]", "mapping", "energy [uJ]", "saving"});
  std::vector<double> avg_saving(5, 0.0);
  for (const auto neurons : bench::kPaperSizes) {
    const std::size_t n_weights = 784 * neurons;
    const auto base_place =
        mapping::baseline_placement_layers(g, {n_weights})[0];
    const double e_base =
        core::weight_stream_energy(g, base_place, n_weights, 1.350)
            .energy.total_nj();
    std::string name = "N";  // not "N" + ...: gcc 12 -Wrestrict false positive
    name += std::to_string(neurons);
    t.add_row({name, "1.350", "baseline", Table::num(e_base / 1000.0, 1),
               "-"});
    int vi = 0;
    for (const double v : energy::kEvalVoltages) {
      const double ber = bm.ber(v);
      // BER_th = the trained tolerance; the full pipeline learns 1e-3
      // (see fig11); mapping at min(1e-3, anything above module BER).
      const auto prop = mapping::sparkxd_placement_layers(
          g, profile, ber, {std::max(ber, 1e-3)}, {n_weights})[0];
      const double e =
          core::weight_stream_energy(g, prop.chunks, n_weights, v)
              .energy.total_nj();
      const double saving = 100.0 * (1.0 - e / e_base);
      avg_saving[static_cast<std::size_t>(vi)] += saving / 5.0;
      t.add_row({name, Table::num(v, 3), "SparkXD",
                 Table::num(e / 1000.0, 1), Table::pct(saving)});
      ++vi;
    }
  }
  t.emit();

  Table avg("fig12a_average_savings",
            {"V_supply [V]", "paper avg saving", "measured avg saving"});
  const double paper[] = {3.84, 13.33, 22.69, 31.12, 39.46};
  for (int i = 0; i < 5; ++i)
    avg.add_row({Table::num(energy::kEvalVoltages[i], 3),
                 Table::pct(paper[i]),
                 Table::pct(avg_saving[static_cast<std::size_t>(i)])});
  avg.emit();
  return 0;
}
