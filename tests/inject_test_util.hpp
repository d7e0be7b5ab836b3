#pragma once
// Test-only oracle over the weak-cell tables: the deterministic worst-case
// read, used to reason about WHICH cells are weak independently of the
// Bernoulli flip decisions.

#include <cstddef>
#include <vector>

#include "common/bits.hpp"
#include "error/injector.hpp"

namespace sparkxd::testutil {

/// Flips every entry of `inj.freeze(ber)` in `weights`, each flipped word
/// through `sanitize`. Returns the number of flipped bits.
inline std::size_t inject_all_weak(const error::ErrorInjector& inj,
                                   std::vector<float>& weights, double ber,
                                   const error::SanitizeRange& sanitize = {}) {
  const error::FrozenInjection frozen = inj.freeze(ber);
  for (const auto& e : frozen.entries()) {
    float& w = weights.at(e.word);
    w = flip_float_bit(w, e.bit);
    error::sanitize_weight(w, sanitize);
  }
  return frozen.size();
}

}  // namespace sparkxd::testutil
