#pragma once
// Bit-error-rate vs supply-voltage model (paper Fig. 2c, derived from the
// reduced-voltage characterization of Chang et al. [10]).
//
// Below a safe guardband the module-level BER grows exponentially as the
// supply voltage drops; we use a log-linear fit anchored so the paper's five
// evaluation voltages land on the BER decades its training schedule uses:
//     1.325 V -> 1e-9,  1.025 V -> 1e-3   (slope: -20 decades/V)
// and BER = 0 at or above the 1.35 V nominal supply.

namespace sparkxd::energy {

class BerModel {
 public:
  struct Params {
    double v_safe = 1.340;        ///< at/above this voltage: no errors
    double v_anchor = 1.325;      ///< anchor voltage
    double log10_at_anchor = -9;  ///< log10 BER at the anchor
    double decades_per_volt = -20.0;  ///< d(log10 BER)/dV
    double max_ber = 1.0e-2;          ///< clamp (cells fail en masse below)
  };

  BerModel() : BerModel(Params{}) {}
  explicit BerModel(const Params& p) : p_(p) {}

  /// Module-level bit error rate at the given supply voltage.
  [[nodiscard]] double ber(double v_supply) const;

 private:
  Params p_;
};

}  // namespace sparkxd::energy
