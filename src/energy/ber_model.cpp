#include "energy/ber_model.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::energy {

double BerModel::ber(double v_supply) const {
  SPARKXD_REQUIRE(v_supply > 0.0, "supply voltage must be positive");
  if (v_supply >= p_.v_safe) return 0.0;
  const double log10_ber = p_.log10_at_anchor +
                           p_.decades_per_volt * (v_supply - p_.v_anchor);
  const double b = std::pow(10.0, log10_ber);
  return b > p_.max_ber ? p_.max_ber : b;
}

}  // namespace sparkxd::energy
