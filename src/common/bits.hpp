#pragma once
// Bit-level views of stored data.
//
// Approximate DRAM corrupts *stored bits*; SparkXD stores FP32 synaptic
// weights. These helpers provide the exact bit-pattern view used by the error
// injector (src/error) and by tests that reason about MSB/LSB sensitivity.

#include <bit>
#include <cstdint>

#include "common/contracts.hpp"

namespace sparkxd {

/// Reinterprets an IEEE-754 binary32 as its 32-bit pattern.
[[nodiscard]] constexpr std::uint32_t float_to_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}

/// Reinterprets a 32-bit pattern as an IEEE-754 binary32.
[[nodiscard]] constexpr float bits_to_float(std::uint32_t b) noexcept {
  return std::bit_cast<float>(b);
}

/// Flips bit `bit` (0 = LSB … 31 = MSB/sign) of a 32-bit word.
[[nodiscard]] constexpr std::uint32_t flip_bit(std::uint32_t word,
                                               unsigned bit) noexcept {
  return word ^ (std::uint32_t{1} << bit);
}

/// Flips bit `bit` of the stored representation of a float.
[[nodiscard]] inline float flip_float_bit(float f, unsigned bit) {
  SPARKXD_REQUIRE(bit < 32, "binary32 has bits 0..31");
  return bits_to_float(flip_bit(float_to_bits(f), bit));
}

/// True if the word's bit `bit` is set.
[[nodiscard]] constexpr bool test_bit(std::uint32_t word,
                                      unsigned bit) noexcept {
  return (word >> bit) & 1u;
}

}  // namespace sparkxd
