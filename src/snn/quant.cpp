#include "snn/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::snn {

QuantizedWeights quantize(const std::vector<float>& weights,
                          std::size_t n_neurons, std::size_t n_inputs) {
  // Checked by division, so no product wraps.
  SPARKXD_REQUIRE(n_inputs > 0 && weights.size() % n_inputs == 0 &&
                      weights.size() / n_inputs == n_neurons,
                  "weight matrix shape mismatch");
  QuantizedWeights q;
  q.n_neurons = n_neurons;
  q.n_inputs = n_inputs;
  q.codes.resize(weights.size());
  q.row_scale.resize(n_neurons);
  for (std::size_t n = 0; n < n_neurons; ++n) {
    const float* row = weights.data() + n * n_inputs;
    float row_max = 0.0f;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      SPARKXD_REQUIRE(row[i] >= 0.0f && std::isfinite(row[i]),
                      "quantize expects finite non-negative weights");
      row_max = std::max(row_max, row[i]);
    }
    const float scale = row_max > 0.0f ? row_max / 255.0f : 1.0f;
    q.row_scale[n] = scale;
    for (std::size_t i = 0; i < n_inputs; ++i)
      q.codes[n * n_inputs + i] = static_cast<std::uint8_t>(
          std::lround(std::min(row[i] / scale, 255.0f)));
  }
  return q;
}

std::vector<float> dequantize(const QuantizedWeights& q) {
  SPARKXD_REQUIRE(q.n_inputs > 0 && q.codes.size() % q.n_inputs == 0 &&
                      q.codes.size() / q.n_inputs == q.n_neurons &&
                      q.row_scale.size() == q.n_neurons,
                  "quantized matrix shape mismatch");
  std::vector<float> out(q.codes.size());
  for (std::size_t n = 0; n < q.n_neurons; ++n) {
    const float scale = q.row_scale[n];
    for (std::size_t i = 0; i < q.n_inputs; ++i)
      out[n * q.n_inputs + i] =
          static_cast<float>(q.codes[n * q.n_inputs + i]) * scale;
  }
  return out;
}

}  // namespace sparkxd::snn
