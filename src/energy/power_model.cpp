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
  e.act_nj = static_cast<double>(stats.activates) * p_.e_act_nj * s2;
  e.pre_nj = static_cast<double>(stats.precharges) * p_.e_pre_nj * s2;
  e.read_nj = static_cast<double>(stats.reads) * p_.e_rd_nj * s2;
  e.write_nj = static_cast<double>(stats.writes) * p_.e_wr_nj * s2;
  e.io_nj = static_cast<double>(stats.reads + stats.writes) * p_.e_io_nj;
  // mW * ns = pJ; /1000 -> nJ.
  e.background_nj = p_.p_background_mw * s1 * stats.total_time_ns / 1000.0;
  // Refresh is array work -> V^2 scaling: the counted REFs of a simulated
  // cadence, else one REF per t_refi_ns of makespan.
  const double refs = refresh.simulated()
                          ? static_cast<double>(stats.refreshes)
                          : std::floor(stats.total_time_ns / p_.t_refi_ns);
  e.refresh_nj = refs * p_.e_refresh_nj * s2;
  return e;
}

double PowerModel::region_refresh_energy_nj(std::uint64_t refreshes,
                                            double row_fraction,
                                            double v_supply) const {
  SPARKXD_REQUIRE(row_fraction >= 0.0 && row_fraction <= 1.0,
                  "region row fraction must lie in [0, 1]");
  return static_cast<double>(refreshes) * p_.e_refresh_nj * row_fraction *
         dynamic_scale(v_supply);
}

double PowerModel::access_energy_nj(dram::RowBufferOutcome outcome,
                                    double v_supply,
                                    const dram::TimingParams& timing) const {
  const double s2 = dynamic_scale(v_supply);
  const double s1 = background_scale(v_supply);
  double dynamic = p_.e_rd_nj * s2;
  double latency_ns = timing.t_cl + timing.t_burst;
  switch (outcome) {
    case dram::RowBufferOutcome::kHit:
      break;
    case dram::RowBufferOutcome::kMiss:
      dynamic += p_.e_act_nj * s2;
      latency_ns += timing.t_rcd;
      break;
    case dram::RowBufferOutcome::kConflict:
      dynamic += (p_.e_act_nj + p_.e_pre_nj) * s2;
      latency_ns += timing.t_rp + timing.t_rcd;
      break;
  }
  const double background =
      p_.p_background_mw * s1 * latency_ns / 1000.0;
  return dynamic + p_.e_io_nj + background;
}

double PowerModel::array_energy_per_access_nj(double v_supply) const {
  return (p_.e_act_nj + p_.e_rd_nj + p_.e_pre_nj) * dynamic_scale(v_supply);
}

}  // namespace sparkxd::energy
