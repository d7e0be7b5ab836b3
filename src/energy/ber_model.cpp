#include "energy/ber_model.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::energy {

namespace {

constexpr double kSafeVdd = 1.340;          // at/above this voltage: no errors
constexpr double kAnchorVdd = 1.325;        // anchor voltage
constexpr double kLog10BerAtAnchor = -9.0;  // log10 BER at the anchor
constexpr double kDecadesPerVolt = -20.0;   // d(log10 BER)/dV
constexpr double kMaxBer = 1.0e-2;  // clamp (cells fail en masse below)

}  // namespace

double BerModel::ber(double v_supply) const {
  SPARKXD_REQUIRE(v_supply > 0.0, "supply voltage must be positive");
  if (v_supply >= kSafeVdd) return 0.0;
  const double log10_ber =
      kLog10BerAtAnchor + kDecadesPerVolt * (v_supply - kAnchorVdd);
  const double b = std::pow(10.0, log10_ber);
  return b > kMaxBer ? kMaxBer : b;
}

}  // namespace sparkxd::energy
