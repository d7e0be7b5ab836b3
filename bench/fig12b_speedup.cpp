// Fig. 12b: data-throughput speed-up of the SparkXD mapping over the
// baseline SNN mapping (simulated DRAM service time of one inference's
// weight stream, same request-arrival process for both).
// Paper: SparkXD maintains throughput — 1.02x average speed-up.

#include "bench_common.hpp"
#include "dram/controller.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Fig. 12b — throughput speed-up over the baseline mapping",
                "SparkXD maintains data throughput (paper: 1.02x average)");
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, experiment_seed());
  const dram::TimingParams timing = dram::TimingParams::lpddr3_1600();
  dram::Controller controller(g, timing);

  Table t("fig12b_speedup",
          {"network", "baseline time [us]", "SparkXD time [us]", "speed-up",
           "baseline hit rate", "SparkXD hit rate"});
  double avg = 0.0;
  for (const auto neurons : bench::kPaperSizes) {
    const std::size_t n_weights = 784 * neurons;
    const auto base = mapping::baseline_placement_layers(g, {n_weights})[0];
    const auto prop =
        mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3},
                                          {n_weights})[0];
    const auto s_base = controller.run(
        mapping::streaming_read_trace(g, base, n_weights),
        core::kBurstArrivalNs);
    const auto s_prop = controller.run(
        mapping::streaming_read_trace(g, prop.chunks, n_weights),
        core::kBurstArrivalNs);
    const double speedup = s_base.total_time_ns / s_prop.total_time_ns;
    avg += speedup / static_cast<double>(bench::kPaperSizes.size());
    std::string name = "N";  // not "N" + ...: gcc 12 -Wrestrict false positive
    name += std::to_string(neurons);
    t.add_row({name,
               Table::num(s_base.total_time_ns / 1000.0, 1),
               Table::num(s_prop.total_time_ns / 1000.0, 1),
               Table::num(speedup, 3), Table::num(s_base.hit_rate(), 4),
               Table::num(s_prop.hit_rate(), 4)});
  }
  t.add_row({"average", "-", "-", Table::num(avg, 3), "-", "-"});
  t.emit();
  return 0;
}
