#pragma once
// Test-only references for the ECC schemes: the representative specs the
// property and exhaustive sweeps iterate, and each kind's guaranteed
// detection weight d, which the sweeps assert against.

#include <vector>

#include "error/ecc_scheme.hpp"

namespace sparkxd::testutil {

/// Representative specs across every kind and codeword size, including the
/// 512 B and 4 KB large-codeword BCH modes.
inline std::vector<error::EccSpec> registered_ecc_specs() {
  using error::EccKind;
  return {
      {EccKind::kNone, 64},   {EccKind::kParity, 64}, {EccKind::kSecded, 64},
      {EccKind::kHsiao, 64},  {EccKind::kHsiao, 128}, {EccKind::kBch, 64},
      {EccKind::kBch, 4096},   // 512 B large-codeword mode
      {EccKind::kBch, 32768},  // 4 KB large-codeword mode
  };
}

/// Guaranteed detected error weight d of a kind: any pattern of
/// t < weight <= d bits is flagged, never miscorrected.
inline unsigned detectable_bits(error::EccKind kind) {
  switch (kind) {
    case error::EccKind::kNone: return 0;
    case error::EccKind::kParity: return 1;
    case error::EccKind::kSecded:
    case error::EccKind::kHsiao: return 2;
    case error::EccKind::kBch: return 3;
  }
  return 0;
}

}  // namespace sparkxd::testutil
