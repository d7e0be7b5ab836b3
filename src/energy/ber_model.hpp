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
  /// Module-level bit error rate at the given supply voltage.
  [[nodiscard]] double ber(double v_supply) const;
};

}  // namespace sparkxd::energy
