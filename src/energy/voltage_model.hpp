#pragma once
// DRAM array-voltage model — the stand-in for the paper's SPICE study of the
// circuit model from Chang et al. [10] (paper §II-B2, Figs. 2d and 6).
//
// Physics captured:
//  * After PRE, bitlines rest equalized at V_supply/2.
//  * ACT fires the sense amplifier, which restores the array voltage toward
//    V_supply. The restore is modelled as a stretched exponential
//        V(t) = V/2 + (V/2) * (1 - exp(-(t/tau)^beta)),
//    whose shape parameter beta is fitted so the nominal 1.35 V waveform
//    reproduces the LPDDR3-1600 datasheet tRCD (18 ns) *and* tRAS (42 ns)
//    simultaneously (a single-pole exponential cannot).
//  * PRE drives the array back to V_supply/2 with a fast equalizer pole.
//  * The sense amplifier's drive current shrinks as the supply drops, so the
//    time constants scale as (V_nom / V_supply)^2 — this is what makes
//    reliable tRCD/tRAS/tRP grow at reduced voltage (paper Fig. 6).
//
// Reliability thresholds (paper §II-B2, labels 1-3):
//    ready-to-access    V_array >= 75% V_supply  -> minimum tRCD
//    ready-to-precharge V_array >= 98% V_supply  -> minimum tRAS
//    ready-to-activate  |V_array - V_supply/2| <= 2% of V_supply/2 -> min tRP

#include <vector>

#include "dram/timing.hpp"

namespace sparkxd::energy {

/// Nominal LPDDR3 supply voltage (paper: accurate DRAM at 1.35 V).
inline constexpr double kNominalVdd = 1.350;
/// Lowest approximate-DRAM voltage the paper evaluates.
inline constexpr double kMinVdd = 1.025;
/// The five approximate-DRAM voltage steps of the paper's evaluation.
inline constexpr double kEvalVoltages[] = {1.325, 1.250, 1.175, 1.100, 1.025};

/// One point of the array-voltage waveform.
struct WaveformPoint {
  double t_ns = 0.0;
  double v_array = 0.0;
};

/// Array-voltage waveform and the timings it implies. The model constants
/// (voltage_model.cpp) are calibrated to LPDDR3-1600 nominal timings.
class VoltageModel {
 public:
  /// Array voltage at time t_ns after an ACT issued at t = 0 with the array
  /// starting from the equalized level V/2.
  [[nodiscard]] double v_array_activate(double v_supply, double t_ns) const;

  /// Array voltage at time t_ns after a PRE issued with the array at
  /// `v_start`.
  [[nodiscard]] double v_array_precharge(double v_supply, double v_start,
                                         double t_ns) const;

  /// Minimum reliable tRCD at this supply voltage (75% threshold).
  [[nodiscard]] double t_rcd_ns(double v_supply) const;
  /// Minimum reliable tRAS at this supply voltage (98% threshold).
  [[nodiscard]] double t_ras_ns(double v_supply) const;
  /// Minimum reliable tRP at this supply voltage (2% equalize band).
  [[nodiscard]] double t_rp_ns(double v_supply) const;

  /// Full timing set at a supply voltage: tRCD/tRAS/tRP re-derived from the
  /// waveform (rounded up to whole clocks), other parameters nominal.
  [[nodiscard]] dram::TimingParams derive_timings(double v_supply) const;

  /// Samples the Fig. 2d / Fig. 6 waveform: ACT at t = 0, PRE at
  /// `pre_at_ns`, sampled every `dt_ns` until `t_end_ns`.
  [[nodiscard]] std::vector<WaveformPoint> waveform(double v_supply,
                                                    double pre_at_ns,
                                                    double t_end_ns,
                                                    double dt_ns) const;
};

}  // namespace sparkxd::energy
