#include "error/retention.hpp"

#include <cmath>

#include "dram/timing.hpp"

namespace sparkxd::error {

namespace {

// log10 of the median cell retention time, in nominal windows
// (3.36 decades ~ 23 s for a 64 ms window).
constexpr double kMedianDecades = 3.36;
// Lognormal spread of retention times, in decades.
constexpr double kSigmaDecades = 0.6;

}  // namespace

void RetentionSpec::validate() const {
  if (!enabled) return;
  SPARKXD_REQUIRE(interval_multiplier >= 1.0 &&
                      interval_multiplier <= dram::kMaxRefreshMultiplier,
                  "retention interval multiplier must lie in [1, 1024]");
}

double retention_fail_probability(const RetentionSpec& spec,
                                  double subarray_weakness) {
  if (!spec.enabled) return 0.0;
  spec.validate();
  SPARKXD_REQUIRE(subarray_weakness >= 0.0,
                  "subarray weakness must be non-negative");
  if (subarray_weakness == 0.0) return 0.0;  // infinitely strong subarray
  const double z = (std::log10(spec.interval_multiplier) +
                    std::log10(subarray_weakness) - kMedianDecades) /
                   kSigmaDecades;
  // Standard normal CDF via erfc (numerically sound far into the tail).
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

}  // namespace sparkxd::error
