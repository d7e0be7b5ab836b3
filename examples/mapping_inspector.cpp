// Mapping inspector: visualizes how Algorithm 2 places weights across the
// DRAM module versus the baseline sequential fill.
//
// Prints (1) a per-bank x subarray occupancy map — '#' safe+used, '.'
// safe+unused, 'x' unsafe/skipped — and (2) row-buffer statistics of the
// inference weight stream under both mappings. When the subarrays safe at
// ber_th cannot hold the weights, Algorithm 2 relaxes the threshold; the
// inspector then prints the relaxed BER_th and draws the map at it.
//
// Usage: mapping_inspector [neurons] [module_ber] [ber_th]

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "dram/controller.hpp"
#include "mapping/mapping.hpp"

int main(int argc, char** argv) {
  using namespace sparkxd;
  const std::size_t neurons =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 3600;
  const double module_ber = argc > 2 ? std::atof(argv[2]) : 1e-3;
  const double ber_th = argc > 3 ? std::atof(argv[3]) : 1e-3;

  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, experiment_seed());
  const std::size_t n_weights = 784 * neurons;
  std::printf(
      "SparkXD mapping inspector — N%zu (%zu weights, %.1f MB), module "
      "BER %.0e, BER_th %.0e\n",
      neurons, n_weights,
      static_cast<double>(n_weights) * 4.0 / (1024.0 * 1024.0), module_ber,
      ber_th);

  const auto prop = mapping::sparkxd_placement_layers(
      g, profile, module_ber, {ber_th}, {n_weights})[0];
  if (prop.capacity_relaxed)
    std::printf("BER_th relaxed to %.3e: the subarrays safe at %.0e cannot "
                "hold the weights\n",
                prop.ber_th, ber_th);
  std::printf("safe subarrays: %zu / %zu (unsafe skipped: %zu)\n",
              prop.safe_subarrays, static_cast<std::size_t>(
                                       g.total_subarrays()),
              prop.unsafe_subarrays);

  // Occupancy map: which subarrays hold weights.
  std::set<std::uint64_t> used;
  for (const auto& a : prop.chunks) used.insert(subarray_id(g, a));
  std::printf("\nsubarray map (rows = banks, cols = subarrays; '#' used, "
              "'.' safe unused, 'x' unsafe):\n");
  for (std::uint32_t ba = 0; ba < g.banks_per_chip; ++ba) {
    std::printf("bank %u | ", ba);
    for (std::uint32_t su = 0; su < g.subarrays_per_bank; ++su) {
      const dram::Address a{0, 0, 0, ba, su, 0, 0};
      const auto sid = subarray_id(g, a);
      const bool safe = profile.rate(sid, module_ber) <= prop.ber_th;
      std::printf("%c", !safe ? 'x' : (used.count(sid) ? '#' : '.'));
    }
    std::printf("\n");
  }

  // Stream statistics under both mappings.
  const auto base = mapping::baseline_placement_layers(g, {n_weights})[0];
  dram::Controller c(g, dram::TimingParams::lpddr3_1600());
  const auto s_base = c.run(
      mapping::streaming_read_trace(g, base, n_weights),
      core::kBurstArrivalNs);
  const auto s_prop = c.run(
      mapping::streaming_read_trace(g, prop.chunks, n_weights),
      core::kBurstArrivalNs);

  Table t("mapping_inspector",
          {"mapping", "accesses", "hits", "misses", "conflicts",
           "hit rate", "time [us]", "GB/s"});
  const auto add = [&](const char* name, const dram::TraceStats& s) {
    t.add_row({name, std::to_string(s.accesses), std::to_string(s.hits),
               std::to_string(s.misses), std::to_string(s.conflicts),
               Table::num(s.hit_rate(), 4),
               Table::num(s.total_time_ns / 1000.0, 1),
               Table::num(s.bytes_per_ns(g.burst_bytes()), 2)});
  };
  add("baseline", s_base);
  add("SparkXD (Algorithm 2)", s_prop);
  t.emit();
  return 0;
}
