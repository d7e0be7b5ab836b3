// Tests for the resilience extensions: uint8 weight quantization and
// raw-byte error injection (the paths bench/ablation_quantization
// exercises). ECC is covered by ecc_scheme_test and ecc_exhaustive_test.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "common/contracts.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/quant.hpp"

namespace sparkxd {
namespace {

// -------------------------------------------------------------- quantization

TEST(Quant, RoundTripWithinHalfScale) {
  Rng rng(1);
  const std::size_t neurons = 10, inputs = 100;
  std::vector<float> w(neurons * inputs);
  for (auto& x : w) x = static_cast<float>(rng.uniform(0.0, 0.4));
  const auto q = snn::quantize(w, neurons, inputs);
  const auto back = snn::dequantize(q);
  for (std::size_t n = 0; n < neurons; ++n) {
    const float bound = q.row_scale[n] * 0.5f + 1e-6f;
    for (std::size_t i = 0; i < inputs; ++i)
      EXPECT_NEAR(back[n * inputs + i], w[n * inputs + i], bound);
  }
}

TEST(Quant, ScalePerRowTracksRowMax) {
  std::vector<float> w = {0.1f, 0.2f,   // row 0: max 0.2
                          0.4f, 0.05f}; // row 1: max 0.4
  const auto q = snn::quantize(w, 2, 2);
  EXPECT_NEAR(q.row_scale[0], 0.2f / 255.0f, 1e-7);
  EXPECT_NEAR(q.row_scale[1], 0.4f / 255.0f, 1e-7);
  // The row maximum maps to code 255.
  EXPECT_EQ(q.codes[1], 255);
  EXPECT_EQ(q.codes[2], 255);
}

TEST(Quant, ZeroRowIsStable) {
  std::vector<float> w(8, 0.0f);
  const auto q = snn::quantize(w, 2, 4);
  const auto back = snn::dequantize(q);
  for (const float x : back) EXPECT_EQ(x, 0.0f);
}

TEST(Quant, StorageIsOneBytePerSynapse) {
  std::vector<float> w(300, 0.1f);
  const auto q = snn::quantize(w, 3, 100);
  EXPECT_EQ(q.size_bytes(), 300u);
}

TEST(Quant, RejectsNegativeWeightsAndBadShape) {
  std::vector<float> w = {0.1f, -0.2f};
  EXPECT_THROW((void)snn::quantize(w, 1, 2), ContractViolation);
  EXPECT_THROW((void)snn::quantize(w, 2, 2), ContractViolation);
}

TEST(Quant, CorruptionIsBoundedByRowMax) {
  // The structural advantage over FP32: flipping ANY bit of a uint8 code
  // moves the decoded weight by at most row_max (no exponent explosion).
  Rng rng(2);
  const std::size_t neurons = 4, inputs = 64;
  std::vector<float> w(neurons * inputs);
  for (auto& x : w) x = static_cast<float>(rng.uniform(0.0, 0.3));
  auto q = snn::quantize(w, neurons, inputs);
  const auto clean = snn::dequantize(q);
  for (auto& c : q.codes) c = static_cast<std::uint8_t>(c ^ 0x80);  // MSB
  const auto corrupted = snn::dequantize(q);
  for (std::size_t n = 0; n < neurons; ++n) {
    const float row_max = q.row_scale[n] * 255.0f;
    for (std::size_t i = 0; i < inputs; ++i)
      EXPECT_LE(std::abs(corrupted[n * inputs + i] - clean[n * inputs + i]),
                row_max * 0.51f);
  }
}

// ------------------------------------------------------- raw-byte injection

TEST(ByteInjection, FlipRateMatchesFloatPath) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 11);
  const std::size_t n_bytes = 400000;
  const auto place =
      mapping::baseline_placement_layers(g, {n_bytes / sizeof(float)})[0];
  const error::ErrorInjector inj(g, profile, {}, place, n_bytes, 11, 1e-3);
  Rng rng(3);
  std::vector<std::uint8_t> buf(n_bytes, 0x55);
  const auto flips =
      inj.freeze(1e-3).inject_bytes(buf.data(), buf.size(), rng);
  EXPECT_NEAR(static_cast<double>(flips) / inj.expected_flips(1e-3), 1.0,
              0.15);
}

TEST(ByteInjection, FlippedBitsMatchHammingDistance) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 12);
  const std::size_t n_bytes = 100000;
  const auto place =
      mapping::baseline_placement_layers(g, {n_bytes / sizeof(float)})[0];
  const error::ErrorInjector inj(g, profile, {}, place, n_bytes, 12, 1e-3);
  Rng rng(4);
  std::vector<std::uint8_t> buf(n_bytes, 0x00);
  const auto flips =
      inj.freeze(1e-3).inject_bytes(buf.data(), buf.size(), rng);
  std::size_t ones = 0;
  for (const auto b : buf)
    ones += static_cast<std::size_t>(std::popcount(unsigned{b}));
  EXPECT_EQ(ones, flips);
}

TEST(ByteInjection, SameWeakCellsAsFloatPath) {
  // One table, one Rng seed: the byte path over the FP32 payload's bytes
  // must flip exactly the bits the float path flips (same entries, same
  // order, one draw per entry) and leave the Rng in the same state.
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 13);
  const std::size_t n_weights = 50000;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto frozen = error::ErrorInjector::for_weights(
                          g, profile, {}, place, n_weights, 13, 1e-3)
                          .freeze(1e-3);
  std::vector<float> wf(n_weights, 0.1f);
  std::vector<std::uint8_t> bytes(n_weights * sizeof(float));
  std::memcpy(bytes.data(), wf.data(), bytes.size());
  Rng a(5), b(5);
  const auto nf = frozen.inject(wf, a, error::SanitizeRange::raw());
  const auto nb = frozen.inject_bytes(bytes.data(), bytes.size(), b);
  EXPECT_GT(nf, 0u);
  EXPECT_EQ(nf, nb);
  EXPECT_EQ(std::memcmp(bytes.data(), wf.data(), bytes.size()), 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace sparkxd
