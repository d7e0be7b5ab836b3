#pragma once
// Retention-failure error model — the refresh-axis counterpart of the
// voltage-BER models (EDEN [15] §"reduced refresh", EnforceSNN).
//
// A DRAM cell must be refreshed before its charge leaks below the sense
// threshold. The datasheet guarantees every cell a retention window tREFW
// (64 ms for LPDDR3); real cells retain their data far longer, with a
// lognormal-tailed distribution across the die. Relaxing the refresh
// cadence by a multiplier m stretches the effective window to m x tREFW, so
// the cells whose retention time falls below that stretched window fail —
// deterministically the *same* cells at every read, which is exactly the
// weak-cell structure fault-aware training can learn around.
//
// We model per-cell retention time (in units of the nominal window) as
//     t_ret = 10^(kMedianDecades + kSigmaDecades * z) / subarray_weakness
// with z standard normal (the two constants live in retention.cpp: a
// median of 3.36 decades ~ 23 s for a 64 ms window, a spread of 0.6
// decades). A cell fails when t_ret < m, i.e. with per-subarray
// probability
//     p(m, w) = Phi((log10(m) + log10(w) - kMedianDecades) / kSigmaDecades).
// The injector realizes this by comparing a deterministic per-cell uniform
// hash against p — which makes retention-weak sets NESTED across multipliers
// (a cell failing at m = 8 also fails at m = 16), mirroring the nesting of
// the voltage weak-cell sets across BER.
//
// The constants put the nominal cadence (m = 1) at ~1e-8 failures/cell and
// m = 32 at ~1e-3 — the same decades the voltage axis spans — so the two
// approximation axes compose on equal footing.

#include "common/contracts.hpp"

namespace sparkxd::error {

/// Retention-failure model parameters. `enabled` is false by default so
/// error models without a refresh axis are unaffected.
struct RetentionSpec {
  bool enabled = false;
  /// Effective retention window in units of the nominal tREFW (the refresh
  /// policy's interval multiplier; 1 = datasheet cadence).
  double interval_multiplier = 1.0;

  /// Throws ContractViolation when enabled with a multiplier outside
  /// [1, dram::kMaxRefreshMultiplier].
  void validate() const;
};

/// Probability that a cell of a subarray with weakness multiplier
/// `subarray_weakness` fails to retain its data over the effective window.
/// Monotonically non-decreasing in both arguments; 0 when disabled.
[[nodiscard]] double retention_fail_probability(const RetentionSpec& spec,
                                                double subarray_weakness);

}  // namespace sparkxd::error
