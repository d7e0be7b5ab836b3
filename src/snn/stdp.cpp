#include "snn/stdp.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::snn {

PreTraces::PreTraces(std::size_t n_inputs)
    : decay_(std::exp(-NetworkConfig::dt_ms / StdpParams::tau_pre_ms)),
      x_(n_inputs, 0.0f) {}

void PreTraces::reset() { std::fill(x_.begin(), x_.end(), 0.0f); }

void PreTraces::step(const std::vector<std::uint32_t>& input_spikes) {
  for (float& x : x_) x *= decay_;
  for (const auto i : input_spikes) {
    SPARKXD_REQUIRE(i < x_.size(), "input spike index out of range");
    x_[i] = 1.0f;
  }
}

void stdp_post_update(float* w_row, std::size_t n_inputs,
                      const std::vector<float>& x_pre) {
  SPARKXD_REQUIRE(x_pre.size() == n_inputs,
                  "trace width must match the weight row");
  constexpr float eta = StdpParams::eta;
  constexpr float x_target = StdpParams::x_target;
  constexpr float w_min = StdpParams::w_min;
  constexpr float w_max = StdpParams::w_max;
  const float* x = x_pre.data();
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const float w = w_row[i];
    const float drive = x[i] - x_target;
    // Asymmetric soft bounds: potentiation saturates toward w_max,
    // depression toward w_min. Scaling depression by (w - w_min) matters
    // for fault recovery: a weight corrupted to w_max must still be
    // depressible, which a symmetric (w_max - w) factor would forbid.
    // Both products are computed and one is selected, so the loop has no
    // branch.
    const float up = eta * drive * (w_max - w);
    const float down = eta * drive * (w - w_min);
    const float v = w + (drive > 0.0f ? up : down);
    // std::clamp(v, w_min, w_max), spelled out as its select chain (a NaN
    // v passes through unchanged).
    w_row[i] = v < w_min ? w_min : (w_max < v ? w_max : v);
  }
}

}  // namespace sparkxd::snn
