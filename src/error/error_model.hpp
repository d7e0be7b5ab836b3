#pragma once
// The four probabilistic approximate-DRAM error models of EDEN [15]
// (paper §III). All four share the weak-cell abstraction: a fixed set of
// cells fails probabilistically when the DRAM is operated out of spec; they
// differ in how weakness is distributed across the bank:
//
//   Model-0  uniform random weak cells across the bank        (paper's pick)
//   Model-1  weakness concentrated along bitlines  (vertical stripes)
//   Model-2  weakness concentrated along wordlines (horizontal stripes)
//   Model-3  uniform weak cells, error probability depends on the stored
//            value (a "true" cell flips with p1, a "false" cell with p0)
//
// The paper (and EDEN) use Model-0 for training because it approximates the
// others well and injects fastest. Here injection costs the same under all
// four (one pass over a frozen candidate list); Model-0 is only cheapest to
// enumerate, with Model-1 paying one lognormal draw per distinct bitline.
// We implement all four so the choice can be ablated
// (bench/ablation_error_models).

#include <cstdint>

#include "error/retention.hpp"

namespace sparkxd::error {

enum class ErrorModelKind : std::uint8_t {
  kModel0Uniform = 0,
  kModel1Bitline = 1,
  kModel2Wordline = 2,
  kModel3DataDependent = 3,
};

[[nodiscard]] const char* to_string(ErrorModelKind k) noexcept;

/// Full error-model specification.
struct ErrorModelSpec {
  ErrorModelKind kind = ErrorModelKind::kModel0Uniform;
  /// Model-3 only: flip probability of a weak cell storing 1 (p1) or 0 (p0).
  /// They average to the weak-cell failure probability 0.5, so all four
  /// models produce the same expected BER for random data.
  static constexpr double p1 = 0.75;
  static constexpr double p0 = 0.25;
  /// Lognormal spread of the per-bitline (Model-1) / per-wordline (Model-2)
  /// weakness multipliers.
  static constexpr double stripe_sigma = 1.0;
  /// Retention-failure component (error/retention.hpp): an independent
  /// refresh-axis error source that COMPOSES with all four voltage models —
  /// the injector adds the retention-weak cells of the active refresh
  /// interval on top of the voltage-weak cells. Disabled by default.
  RetentionSpec retention;
};

/// Probability that a weak cell fails on a given read. The module BER is
/// (weak-cell density) * kWeakCellFailProb; density is derived from the BER
/// by the injector.
inline constexpr double kWeakCellFailProb = 0.5;

}  // namespace sparkxd::error
