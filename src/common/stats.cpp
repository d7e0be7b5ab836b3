#include "common/stats.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace sparkxd {

double percentile(std::vector<double> v, double p) {
  SPARKXD_REQUIRE(!v.empty(), "percentile of empty sample");
  SPARKXD_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Partial selection instead of a full sort: place element lo, then the
  // upper neighbour (if interpolation needs it) is the minimum of the tail.
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double v_lo = v[lo];
  if (frac <= 0.0 || lo + 1 >= v.size()) return v_lo;
  const double v_hi = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double clamp(double x, double lo, double hi) noexcept {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace sparkxd
