#pragma once
// Command-level DRAM energy model — the stand-in for DRAMPower [8]
// (paper Figs. 2b, 12a and Table I).
//
// Energy is split into:
//  * per-command dynamic charges (ACT, PRE, RD, WR array energy) that scale
//    with (V_supply / V_nom)^2 — array charging is C·V^2 work;
//  * a per-burst I/O term on the separate (fixed) output-driver rail, which
//    does NOT scale with the array supply — this is why a row-buffer *hit*
//    saves less (~31%) from voltage scaling than a conflict (~38-42%),
//    reproducing the 31%-42% per-access range of §I-B;
//  * background power over the simulated trace makespan, scaling linearly
//    with voltage (roughly constant standby current);
//  * refresh: the REF commands the controller counted under its one
//    cadence (or the makespan estimate when refresh was not simulated),
//    optionally scaled to the share of rows one layer occupies.
//
// Absolute per-command charges are calibrated so the nominal 1.35 V
// hit/miss/conflict access energies land in the 2-8 nJ range of Fig. 2b.

#include "dram/timing.hpp"
#include "dram/trace.hpp"

namespace sparkxd::energy {

/// Energy split of a simulated trace, in nanojoules.
struct EnergyBreakdown {
  double act_nj = 0.0;
  double pre_nj = 0.0;
  double read_nj = 0.0;   ///< array+peripheral dynamic energy of RD bursts
  double write_nj = 0.0;  ///< array+peripheral dynamic energy of WR bursts
  double io_nj = 0.0;     ///< output-driver energy (voltage-independent)
  double background_nj = 0.0;
  double refresh_nj = 0.0;  ///< periodic REF commands over the makespan
  double ecc_nj = 0.0;      ///< ECC decode logic per fetched codeword
                            ///< (fixed logic rail, like io_nj)

  [[nodiscard]] double total_nj() const noexcept {
    return act_nj + pre_nj + read_nj + write_nj + io_nj + background_nj +
           refresh_nj + ecc_nj;
  }
};

class PowerModel {
 public:
  /// Per-command charges at V_nom = 1.35 V, in nJ; background in mW.
  static constexpr double kActNj = 3.2;
  static constexpr double kPreNj = 2.1;
  static constexpr double kReadNj = 1.5;
  static constexpr double kWriteNj = 1.6;
  static constexpr double kIoNj = 0.10;  ///< per burst, fixed rail
  static constexpr double kBackgroundMw = 3.0;
  /// One all-bank REF; array work, so it scales with V^2 like the other
  /// dynamic components.
  static constexpr double kRefreshNj = 28.0;

  /// (V / V_nom)^2 — scaling of array dynamic energy.
  [[nodiscard]] static double dynamic_scale(double v_supply);
  /// V / V_nom — scaling of background power.
  [[nodiscard]] static double background_scale(double v_supply);

  /// Energy of a whole simulated trace at the given supply voltage. When
  /// `refresh` is simulated (nominal/reduced) the refresh term charges the
  /// REF commands the controller actually counted (`stats.refreshes`), so a
  /// reduced-rate policy shows its energy win directly. When it is disabled
  /// (the default) refresh is charged by the legacy makespan-proportional
  /// estimate: one REF per datasheet tREFI of makespan.
  [[nodiscard]] EnergyBreakdown trace_energy(
      const dram::TraceStats& stats, double v_supply,
      const dram::RefreshPolicy& refresh =
          dram::RefreshPolicy::disabled()) const;

  /// Refresh charge of one layer's rows under a per-layer cadence:
  /// `refreshes` REF commands (the controller's count for a run at that
  /// cadence), each retiring only `row_fraction` of the module's rows — an
  /// all-bank REF's charge scaled by the fraction of rows actually
  /// refreshed, V^2-scaled like all array work. Summing this over layers
  /// with disjoint rows replaces the module-wide refresh term for a
  /// per-layer operating-point evaluation.
  [[nodiscard]] double region_refresh_energy_nj(std::uint64_t refreshes,
                                                double row_fraction,
                                                double v_supply) const;

  /// Energy of ONE access of the given row-buffer condition (Fig. 2b):
  /// command dynamic energy + I/O + background over the access latency
  /// implied by `timing` (pass voltage-derived timings for reduced-voltage
  /// points).
  [[nodiscard]] double access_energy_nj(dram::RowBufferOutcome outcome,
                                        double v_supply,
                                        const dram::TimingParams& timing) const;

  /// Pure array dynamic energy per fully-charged access (ACT+RD+PRE),
  /// excluding the fixed I/O rail — the "DRAM energy-per-access" quantity
  /// whose savings Table I reports.
  [[nodiscard]] double array_energy_per_access_nj(double v_supply) const;
};

}  // namespace sparkxd::energy
