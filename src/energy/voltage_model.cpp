#include "energy/voltage_model.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::energy {

namespace {

constexpr double kBeta = 1.81;          // stretch of the restore exponential
constexpr double kTauActNs = 22.04;     // restore time constant at V_nom
constexpr double kTauPreNs = 4.60;      // equalize time constant at V_nom
constexpr double kDriveExponent = 2.0;  // tau ~ (V_nom/V)^kDriveExponent

double tau_scale(double v_supply) {
  SPARKXD_REQUIRE(v_supply > 0.5 && v_supply <= 2.0,
                  "supply voltage outside the modelled range");
  return std::pow(kNominalVdd / v_supply, kDriveExponent);
}

}  // namespace

double VoltageModel::v_array_activate(double v_supply, double t_ns) const {
  if (t_ns <= 0.0) return v_supply / 2.0;
  const double tau = kTauActNs * tau_scale(v_supply);
  const double x = std::pow(t_ns / tau, kBeta);
  return v_supply / 2.0 + (v_supply / 2.0) * (1.0 - std::exp(-x));
}

double VoltageModel::v_array_precharge(double v_supply, double v_start,
                                       double t_ns) const {
  if (t_ns <= 0.0) return v_start;
  const double tau = kTauPreNs * tau_scale(v_supply);
  const double target = v_supply / 2.0;
  return target + (v_start - target) * std::exp(-t_ns / tau);
}

double VoltageModel::t_rcd_ns(double v_supply) const {
  // Solve V/2 * (2 - exp(-(t/tau)^beta)) = 0.75 V  =>  exp(-x) = 0.5.
  const double tau = kTauActNs * tau_scale(v_supply);
  return tau * std::pow(std::log(2.0), 1.0 / kBeta);
}

double VoltageModel::t_ras_ns(double v_supply) const {
  // 98% threshold: remaining gap fraction = (1 - 0.98) / 0.5 = 0.04.
  const double tau = kTauActNs * tau_scale(v_supply);
  return tau * std::pow(std::log(1.0 / 0.04), 1.0 / kBeta);
}

double VoltageModel::t_rp_ns(double v_supply) const {
  // From a restored cell (~V_supply) down to within 2% of V/2: the initial
  // gap is V/2, so exp(-t/tau) = 0.02.
  const double tau = kTauPreNs * tau_scale(v_supply);
  return tau * std::log(1.0 / 0.02);
}

dram::TimingParams VoltageModel::derive_timings(double v_supply) const {
  dram::TimingParams t = dram::TimingParams::lpddr3_1600();
  const auto ceil_to_clock = [&t](double ns) {
    return std::ceil(ns / t.t_ck) * t.t_ck;
  };
  t.t_rcd = ceil_to_clock(t_rcd_ns(v_supply));
  t.t_ras = ceil_to_clock(t_ras_ns(v_supply));
  t.t_rp = ceil_to_clock(t_rp_ns(v_supply));
  return t;
}

std::vector<WaveformPoint> VoltageModel::waveform(double v_supply,
                                                  double pre_at_ns,
                                                  double t_end_ns,
                                                  double dt_ns) const {
  SPARKXD_REQUIRE(dt_ns > 0.0, "sample period must be positive");
  SPARKXD_REQUIRE(pre_at_ns >= 0.0 && pre_at_ns <= t_end_ns,
                  "PRE must fall inside the sampled window");
  std::vector<WaveformPoint> out;
  const double v_at_pre = v_array_activate(v_supply, pre_at_ns);
  for (double t = 0.0; t <= t_end_ns + 1e-9; t += dt_ns) {
    const double v = t < pre_at_ns
                         ? v_array_activate(v_supply, t)
                         : v_array_precharge(v_supply, v_at_pre, t - pre_at_ns);
    out.push_back({t, v});
  }
  return out;
}

}  // namespace sparkxd::energy
