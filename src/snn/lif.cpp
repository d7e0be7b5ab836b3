#include "snn/lif.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/contracts.hpp"

namespace sparkxd::snn {

LifLayer::LifLayer(std::size_t n)
    : decay_m_(std::exp(-NetworkConfig::dt_ms / LifParams::tau_m_ms)),
      decay_theta_(std::exp(-NetworkConfig::dt_ms / LifParams::tau_theta_ms)),
      v_(n, LifParams::v_rest),
      refractory_(n, 0) {
  SPARKXD_REQUIRE(n > 0, "LIF layer must have at least one neuron");
}

void LifLayer::reset_dynamics() {
  std::fill(v_.begin(), v_.end(), LifParams::v_rest);
  std::fill(refractory_.begin(), refractory_.end(), 0);
}

bool LifLayer::silent_at_rest(const std::vector<float>& theta) const {
  SPARKXD_REQUIRE(theta.size() == v_.size(),
                  "theta width must match layer size");
  for (const float th : theta)
    if (!(LifParams::v_rest < LifParams::v_thresh + th)) return false;
  return true;
}

template <class Theta>
void LifLayer::step(const std::vector<float>& input_current, Theta& theta,
                    std::vector<std::uint32_t>& spikes_out) {
  constexpr bool plastic = !std::is_const_v<Theta>;
  constexpr float v_rest = LifParams::v_rest;
  constexpr float v_reset = LifParams::v_reset;
  constexpr float v_thresh = LifParams::v_thresh;
  constexpr float inhibition = LifParams::inhibition;
  SPARKXD_REQUIRE(input_current.size() == v_.size(),
                  "input current width must match layer size");
  SPARKXD_REQUIRE(theta.size() == v_.size(),
                  "theta width must match layer size");
  const std::size_t n = v_.size();
  float* v = v_.data();
  std::int32_t* refr = refractory_.data();
  const float* cur = input_current.data();
  // Decay factors in locals: a store through `v` or `theta` may alias the
  // members, which would force a reload per neuron.
  const float decay_m = decay_m_;
  const float decay_theta = decay_theta_;
  // Integrate: a refractory neuron is held at reset (its threshold does not
  // decay); every other one leaks toward rest, takes this step's synaptic
  // drive, and, while training, its threshold decays. Both arms are
  // computed and one is selected, so the loop vectorises.
  for (std::size_t i = 0; i < n; ++i) {
    const bool held = refr[i] > 0;
    const float leaked = v_rest + (v[i] - v_rest) * decay_m + cur[i];
    v[i] = held ? v_reset : leaked;
    if constexpr (plastic) {
      const float decayed = theta[i] * decay_theta;
      theta[i] = held ? theta[i] : decayed;
    }
  }
  // Scan: count down the refractory neurons and collect the threshold
  // crossings of the others. A held neuron never crosses, even when a
  // negative threshold puts v_thresh + theta below v_reset.
  spikes_out.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (refr[i] > 0) {
      --refr[i];
      continue;
    }
    if (v[i] >= v_thresh + theta[i])
      spikes_out.push_back(static_cast<std::uint32_t>(i));
  }
  if (spikes_out.empty()) return;
  // Hard WTA: of the simultaneous crossings keep only the neuron whose
  // potential exceeds its threshold by the largest margin.
  if (spikes_out.size() > 1) {
    std::uint32_t best = spikes_out.front();
    float best_margin = v[best] - theta[best];
    for (const auto s : spikes_out) {
      const float margin = v[s] - theta[s];
      if (margin > best_margin) {
        best = s;
        best_margin = margin;
      }
    }
    spikes_out.assign(1, best);
  }
  const std::uint32_t winner = spikes_out.front();
  v[winner] = v_reset;
  refr[winner] = LifParams::refractory_steps;
  if constexpr (plastic) theta[winner] += LifParams::theta_plus;
  // Lateral inhibition: the spike pushes every *other* neuron down, but
  // not unphysically far below reset.
  for (std::size_t i = 0; i < n; ++i) v[i] -= inhibition;
  v[winner] += inhibition;
  constexpr float floor = v_rest - 5.0f * v_thresh;
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] < floor ? floor : v[i];
}

void LifLayer::train_step(const std::vector<float>& input_current,
                          std::vector<float>& theta,
                          std::vector<std::uint32_t>& spikes_out) {
  step(input_current, theta, spikes_out);
}

void LifLayer::infer_step(const std::vector<float>& input_current,
                          const std::vector<float>& theta,
                          std::vector<std::uint32_t>& spikes_out) {
  step(input_current, theta, spikes_out);
}

}  // namespace sparkxd::snn
