// Ablation F: subarray-level parallelism (SALP).
//
// The paper's §IV-D notes that Algorithm 2's subarray-granularity mapping
// can also exploit subarray-level parallelism in "new DRAM architectures"
// (Putra et al. [14], after SALP). This bench quantifies what that buys:
// with per-subarray row buffers, the safe-subarray walk's row switches
// inside a bank stop costing PRE+ACT.
//
// Workload: the Algorithm-2 weight stream read twice (two inference passes
// back-to-back, as a pipelined deployment would), plus the adversarial
// row-scatter layout where SALP's benefit is largest.

#include "bench_common.hpp"
#include "dram/controller.hpp"
#include "energy/power_model.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Ablation — subarray-level parallelism (SALP)",
                "per-subarray row buffers remove intra-bank row conflicts "
                "(paper §IV-D, exploiting [14])");
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, experiment_seed());
  const std::size_t n_weights = 784 * 900;
  const double ber = 1e-3;

  const auto prop =
      mapping::sparkxd_placement_layers(g, profile, ber, {ber}, {n_weights})[0];
  // Adversarial: consecutive chunks walk rows within one bank's subarrays.
  error::ChunkPlacement scatter;
  const std::size_t chunks = mapping::chunks_for_weights(g, n_weights);
  for (std::size_t c = 0; c < chunks; ++c) {
    dram::Address a;
    a.subarray =
        static_cast<std::uint32_t>(c % g.subarrays_per_bank);
    a.row = static_cast<std::uint32_t>((c / g.subarrays_per_bank) %
                                       g.rows_per_subarray);
    scatter.push_back(a);
  }

  const dram::TimingParams timing = dram::TimingParams::lpddr3_1600();
  dram::Controller commodity(g, timing, false);
  dram::Controller salp(g, timing, true);
  const energy::PowerModel pm;

  Table t("ablation_salp",
          {"workload", "controller", "hit rate", "conflicts", "time [us]",
           "energy [uJ]"});
  const auto add = [&](const char* wl, const char* name,
                       dram::Controller& c, const dram::AccessTrace& trace) {
    const auto s = c.run(trace, core::kBurstArrivalNs);
    const auto e = pm.trace_energy(s, 1.025);
    t.add_row({wl, name, Table::num(s.hit_rate(), 4),
               std::to_string(s.conflicts),
               Table::num(s.total_time_ns / 1000.0, 1),
               Table::num(e.total_nj() / 1000.0, 1)});
  };
  const auto stream =
      mapping::streaming_read_trace(g, prop.chunks, n_weights, 2);
  add("Algorithm 2, 2 passes", "commodity", commodity, stream);
  add("Algorithm 2, 2 passes", "SALP", salp, stream);
  const auto scatter_trace =
      mapping::streaming_read_trace(g, scatter, n_weights);
  add("row-scatter (adversarial)", "commodity", commodity, scatter_trace);
  add("row-scatter (adversarial)", "SALP", salp, scatter_trace);
  t.emit();
  return 0;
}
