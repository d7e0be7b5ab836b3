#pragma once
// DRAM timing parameters (paper Fig. 5b / Fig. 6).
//
// tRCD — ACT to RD/WR delay (array must reach the ready-to-access voltage,
//        75% of V_supply).
// tRAS — ACT to PRE delay (cells must be restored to the ready-to-precharge
//        voltage, 98% of V_supply).
// tRP  — PRE to next ACT delay (bitlines must equalize to within 2% of
//        V_supply/2).
// tREFI/tRFC — auto-refresh cadence: one all-bank REF every tREFI, each
//        occupying the device for tRFC (EDEN [15] and EnforceSNN relax this
//        cadence as a second, voltage-independent approximation axis).
//
// The nominal values below are the LPDDR3-1600 datasheet numbers the paper's
// SPICE study reproduces at 1.35 V; at reduced voltage the VoltageModel in
// src/energy re-derives tRCD/tRAS/tRP from the array-voltage waveform.

#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"

namespace sparkxd::dram {

/// Timing parameters in nanoseconds.
struct TimingParams {
  double t_ck = 1.25;   ///< clock period (LPDDR3-1600: 800 MHz)
  double t_rcd = 18.0;  ///< ACT -> column command
  double t_ras = 42.0;  ///< ACT -> PRE
  double t_rp = 18.0;   ///< PRE -> ACT
  double t_cl = 15.0;   ///< column command -> first data beat
  double t_burst = 5.0; ///< BL8 data transfer (4 clocks, DDR)
  double t_rrd = 10.0;  ///< ACT -> ACT, different banks
  double t_refi = 7800.0;  ///< average REF-to-REF interval (tREFI)
  double t_rfc = 130.0;    ///< all-bank REF cycle time (tRFCab, 4 Gb)

  /// Nominal LPDDR3-1600 timings at V_supply = 1.35 V.
  [[nodiscard]] static TimingParams lpddr3_1600() { return {}; }
};

/// How the controller schedules auto-refresh.
enum class RefreshMode : std::uint8_t {
  /// Refresh is not simulated: no REF commands, no tRFC stalls. This is the
  /// pre-refresh-axis behavior of the controller (and the default), so every
  /// existing trace, report, and golden digest is reproduced bit for bit.
  /// The energy model falls back to its makespan-proportional refresh
  /// estimate for this mode (refresh still happens in the background of a
  /// real module; it just is not modelled as stalls here).
  kDisabled = 0,
  /// Datasheet cadence: one all-bank REF every tREFI.
  kNominal = 1,
  /// Reduced-rate refresh: one REF every `interval_multiplier` x tREFI.
  /// Fewer REF stalls and less refresh energy, paid for with
  /// retention-failure bit errors (error::RetentionSpec).
  kReduced = 2,
};

[[nodiscard]] const char* to_string(RefreshMode m) noexcept;

/// Largest refresh interval multiplier a policy or retention spec accepts.
/// At 1024x about 28% of the cells of an average subarray are already
/// retention-weak (error/retention.hpp); a larger value is a typo, not an
/// operating point.
inline constexpr double kMaxRefreshMultiplier = 1024.0;

/// Refresh policy of a DRAM module: the second approximation axis next to
/// supply-voltage scaling. A policy is pure data; the Controller turns it
/// into REF windows and the power model into refresh energy.
struct RefreshPolicy {
  RefreshMode mode = RefreshMode::kDisabled;
  /// Effective refresh interval in units of tREFI (>= 1). Only meaningful
  /// for kReduced; kNominal pins it to 1.
  double interval_multiplier = 1.0;

  [[nodiscard]] static RefreshPolicy disabled() { return {}; }
  [[nodiscard]] static RefreshPolicy nominal() {
    return {RefreshMode::kNominal, 1.0};
  }
  [[nodiscard]] static RefreshPolicy reduced(double multiplier) {
    return {RefreshMode::kReduced, multiplier};
  }

  /// True when the controller must schedule REF commands.
  [[nodiscard]] bool simulated() const noexcept {
    return mode != RefreshMode::kDisabled;
  }

  /// Effective REF-to-REF interval under this policy, in ns.
  [[nodiscard]] double effective_refi_ns(const TimingParams& t) const {
    return t.t_refi *
           (mode == RefreshMode::kReduced ? interval_multiplier : 1.0);
  }

  /// Multiplier actually applied (1 for nominal/disabled).
  [[nodiscard]] double effective_multiplier() const noexcept {
    return mode == RefreshMode::kReduced ? interval_multiplier : 1.0;
  }

  /// Checks the policy against a timing set: the multiplier must lie in
  /// [1, kMaxRefreshMultiplier], and a REF must fit between two REFs (tRFC
  /// < the effective tREFI) or the device would refresh back to back.
  void validate(const TimingParams& t) const {
    SPARKXD_REQUIRE(interval_multiplier >= 1.0 &&
                        interval_multiplier <= kMaxRefreshMultiplier,
                    "refresh interval multiplier must lie in [1, 1024]");
    if (!simulated()) return;
    SPARKXD_REQUIRE(t.t_refi > 0.0 && t.t_rfc > 0.0,
                    "tREFI and tRFC must be positive to simulate refresh");
    SPARKXD_REQUIRE(t.t_rfc < effective_refi_ns(t),
                    "tRFC must be shorter than the effective tREFI");
  }
};

}  // namespace sparkxd::dram
