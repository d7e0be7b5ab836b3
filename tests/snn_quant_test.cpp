// Tests for the quantized weight storage (snn/quant): round-trip error
// bounds, code monotonicity, idempotence, and shape/domain contracts —
// property-style over randomized weight matrices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "snn/quant.hpp"

namespace sparkxd::snn {
namespace {

std::vector<float> random_weights(Rng& rng, std::size_t n_neurons,
                                  std::size_t n_inputs, double w_max) {
  std::vector<float> w(n_neurons * n_inputs);
  for (auto& x : w) x = static_cast<float>(rng.uniform(0.0, w_max));
  return w;
}

TEST(Quant, RoundTripErrorWithinHalfScalePerWeight) {
  Rng rng(1);
  for (std::size_t iter = 0; iter < 10; ++iter) {
    const std::size_t n_neurons = 1 + iter, n_inputs = 7 + 3 * iter;
    const auto w = random_weights(rng, n_neurons, n_inputs, 1.0);
    const auto q = quantize(w, n_neurons, n_inputs);
    const auto back = dequantize(q);
    ASSERT_EQ(back.size(), w.size());
    for (std::size_t n = 0; n < n_neurons; ++n) {
      // Worst-case reconstruction error: half a scale step per weight.
      const float bound = q.row_scale[n] * 0.5f;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const std::size_t idx = n * n_inputs + i;
        // lround ties plus float rounding: half a scale step plus slack.
        EXPECT_NEAR(back[idx], w[idx], bound * (1.0f + 1e-4f) + 1e-7f)
            << "neuron " << n << " input " << i;
      }
    }
  }
}

TEST(Quant, CodesAreMonotoneInTheWeights) {
  // Within a row, a larger weight can never get a smaller code: the affine
  // map is monotone, which is what keeps relative synapse ordering intact
  // through storage.
  Rng rng(2);
  const std::size_t n_inputs = 64;
  const auto w = random_weights(rng, 4, n_inputs, 0.8);
  const auto q = quantize(w, 4, n_inputs);
  for (std::size_t n = 0; n < 4; ++n)
    for (std::size_t i = 0; i < n_inputs; ++i)
      for (std::size_t j = 0; j < n_inputs; ++j) {
        const std::size_t a = n * n_inputs + i, b = n * n_inputs + j;
        if (w[a] > w[b]) {
          EXPECT_GE(q.codes[a], q.codes[b])
              << "monotonicity violated in row " << n;
        }
      }
}

TEST(Quant, QuantizeIsIdempotentOnDequantizedWeights) {
  // Re-quantizing a dequantized matrix reproduces the codes exactly: the
  // representable grid is a fixed point of the round trip.
  Rng rng(3);
  const auto w = random_weights(rng, 6, 32, 1.0);
  const auto q1 = quantize(w, 6, 32);
  const auto q2 = quantize(dequantize(q1), 6, 32);
  EXPECT_EQ(q1.codes, q2.codes);
  EXPECT_EQ(q1.row_scale, q2.row_scale);
}

TEST(Quant, RowMaxMapsToFullCodeAndScaleReconstructsIt) {
  std::vector<float> w{0.0f, 0.1f, 0.4f,   // row 0, max 0.4
                       0.2f, 0.05f, 0.2f}; // row 1, max 0.2
  const auto q = quantize(w, 2, 3);
  EXPECT_EQ(q.codes[2], 255);  // the row maximum always saturates the code
  EXPECT_FLOAT_EQ(q.row_scale[0], 0.4f / 255.0f);
  const auto back = dequantize(q);
  EXPECT_FLOAT_EQ(back[2], 0.4f);
  EXPECT_FLOAT_EQ(back[3], 0.2f);
}

TEST(Quant, AllZeroRowStaysZeroWithUnitScale) {
  const std::vector<float> w(8, 0.0f);
  const auto q = quantize(w, 1, 8);
  EXPECT_FLOAT_EQ(q.row_scale[0], 1.0f);
  for (const auto c : q.codes) EXPECT_EQ(c, 0);
  for (const float v : dequantize(q)) EXPECT_EQ(v, 0.0f);
}

TEST(Quant, SizeBytesIsOneBytePerSynapse) {
  Rng rng(4);
  const auto w = random_weights(rng, 3, 5, 1.0);
  EXPECT_EQ(quantize(w, 3, 5).size_bytes(), 15u);
}

TEST(Quant, RejectsShapeMismatchAndNegativeWeights) {
  std::vector<float> w(12, 0.5f);
  EXPECT_THROW((void)quantize(w, 3, 5), ContractViolation);  // 15 != 12
  w[3] = -0.1f;
  EXPECT_THROW((void)quantize(w, 3, 4), ContractViolation);
  QuantizedWeights q;
  q.n_neurons = 2;
  q.n_inputs = 2;
  q.codes = {1, 2, 3};  // 3 != 4
  q.row_scale = {1.0f, 1.0f};
  EXPECT_THROW((void)dequantize(q), ContractViolation);
  // One scale for two rows: the second row would read past row_scale.
  q.codes = {1, 2, 3, 4};
  q.row_scale = {1.0f};
  EXPECT_THROW((void)dequantize(q), ContractViolation);
  // 2 x 2^63 wraps to 0, which an empty matrix must not match.
  EXPECT_THROW((void)quantize({}, 2, std::size_t{1} << 63),
               ContractViolation);
  q.codes.clear();
  q.row_scale = {1.0f, 1.0f};
  q.n_inputs = std::size_t{1} << 63;
  EXPECT_THROW((void)dequantize(q), ContractViolation);
  // An infinite weight makes its row's scale infinite and its own code
  // lround(inf / inf), a NaN.
  std::vector<float> inf_row(4, 0.5f);
  inf_row[1] = std::numeric_limits<float>::infinity();
  EXPECT_THROW((void)quantize(inf_row, 1, 4), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::snn
