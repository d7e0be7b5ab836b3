// Fig. 2a: combining approximate DRAM with weight pruning — normalized
// DRAM energy across network connectivity (synaptic connection rate) for a
// 4900-neuron network, at 1.350 V (accurate) and 1.025 V (approximate).
// Paper: both curves fall with connectivity; the approximate-DRAM curve
// sits ~40% below the accurate one at every point.

#include "bench_common.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Fig. 2a — approximate DRAM x weight pruning",
                "energy scales with connectivity; approximate DRAM adds a "
                "~40% saving on top of pruning");
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, experiment_seed());
  const std::size_t full_weights = 784 * 4900;

  // Normalization reference: accurate DRAM at full connectivity.
  const auto ref_place =
      mapping::baseline_placement_layers(g, {full_weights})[0];
  const double ref = core::weight_stream_energy(g, ref_place, full_weights,
                                                1.350)
                         .energy.total_nj();

  Table t("fig02a_pruning_combination",
          {"connectivity", "accurate DRAM (1.350V)",
           "approximate DRAM (1.025V)", "saving at this connectivity"});
  for (const double conn : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}) {
    const auto n =
        static_cast<std::size_t>(conn * static_cast<double>(full_weights));
    // Accurate baseline uses the baseline mapping; the approximate point
    // uses the SparkXD mapping (safe subarrays at BER_th = module BER).
    const auto base_place = mapping::baseline_placement_layers(g, {n})[0];
    const auto prop =
        mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3}, {n})[0];
    const double e_acc =
        core::weight_stream_energy(g, base_place, n, 1.350).energy.total_nj();
    const double e_apx =
        core::weight_stream_energy(g, prop.chunks, n, 1.025)
            .energy.total_nj();
    t.add_row({Table::pct(100.0 * conn, 0), Table::num(e_acc / ref, 3),
               Table::num(e_apx / ref, 3),
               Table::pct(100.0 * (1.0 - e_apx / e_acc))});
  }
  t.emit();
  return 0;
}
