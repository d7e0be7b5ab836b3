#pragma once
// Small numerical helpers shared by the simulator, the analyzers, and the
// benchmark harnesses.

#include <vector>

namespace sparkxd {

/// Linearly interpolated percentile, p in [0, 100]. Requires non-empty input.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Clamps x into [lo, hi].
[[nodiscard]] double clamp(double x, double lo, double hi) noexcept;

}  // namespace sparkxd
