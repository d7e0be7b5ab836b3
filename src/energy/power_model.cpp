#include "energy/power_model.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "energy/voltage_model.hpp"

namespace sparkxd::energy {

double PowerModel::dynamic_scale(double v_supply) {
  SPARKXD_REQUIRE(v_supply > 0.0, "supply voltage must be positive");
  const double r = v_supply / kNominalVdd;
  return r * r;
}

double PowerModel::background_scale(double v_supply) {
  SPARKXD_REQUIRE(v_supply > 0.0, "supply voltage must be positive");
  return v_supply / kNominalVdd;
}

EnergyBreakdown PowerModel::trace_energy(
    const dram::TraceStats& stats, double v_supply,
    const dram::RefreshPolicy& refresh) const {
  const double s2 = dynamic_scale(v_supply);
  const double s1 = background_scale(v_supply);
  EnergyBreakdown e;
  e.act_nj = static_cast<double>(stats.activates) * kActNj * s2;
  e.pre_nj = static_cast<double>(stats.precharges) * kPreNj * s2;
  e.read_nj = static_cast<double>(stats.reads) * kReadNj * s2;
  e.write_nj = static_cast<double>(stats.writes) * kWriteNj * s2;
  e.io_nj = static_cast<double>(stats.reads + stats.writes) * kIoNj;
  // mW * ns = pJ; /1000 -> nJ.
  e.background_nj = kBackgroundMw * s1 * stats.total_time_ns / 1000.0;
  // Refresh is array work -> V^2 scaling: the counted REFs of a simulated
  // cadence, else one REF per datasheet tREFI of makespan.
  const double refs =
      refresh.simulated()
          ? static_cast<double>(stats.refreshes)
          : std::floor(stats.total_time_ns /
                       dram::TimingParams::lpddr3_1600().t_refi);
  e.refresh_nj = refs * kRefreshNj * s2;
  return e;
}

double PowerModel::region_refresh_energy_nj(std::uint64_t refreshes,
                                            double row_fraction,
                                            double v_supply) const {
  SPARKXD_REQUIRE(row_fraction >= 0.0 && row_fraction <= 1.0,
                  "region row fraction must lie in [0, 1]");
  return static_cast<double>(refreshes) * kRefreshNj * row_fraction *
         dynamic_scale(v_supply);
}

double PowerModel::access_energy_nj(dram::RowBufferOutcome outcome,
                                    double v_supply,
                                    const dram::TimingParams& timing) const {
  const double s2 = dynamic_scale(v_supply);
  const double s1 = background_scale(v_supply);
  double dynamic = kReadNj * s2;
  double latency_ns = timing.t_cl + timing.t_burst;
  switch (outcome) {
    case dram::RowBufferOutcome::kHit:
      break;
    case dram::RowBufferOutcome::kMiss:
      dynamic += kActNj * s2;
      latency_ns += timing.t_rcd;
      break;
    case dram::RowBufferOutcome::kConflict:
      dynamic += (kActNj + kPreNj) * s2;
      latency_ns += timing.t_rp + timing.t_rcd;
      break;
  }
  const double background = kBackgroundMw * s1 * latency_ns / 1000.0;
  return dynamic + kIoNj + background;
}

double PowerModel::array_energy_per_access_nj(double v_supply) const {
  return (kActNj + kReadNj + kPreNj) * dynamic_scale(v_supply);
}

}  // namespace sparkxd::energy
