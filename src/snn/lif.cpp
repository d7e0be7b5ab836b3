#include "snn/lif.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/contracts.hpp"

namespace sparkxd::snn {

LifLayer::LifLayer(std::size_t n, const LifParams& p, float dt_ms)
    : p_(p),
      decay_m_(std::exp(-dt_ms / p.tau_m_ms)),
      decay_theta_(std::exp(-dt_ms / p.tau_theta_ms)),
      v_(n, p.v_rest),
      refractory_(n, 0) {
  SPARKXD_REQUIRE(n > 0, "LIF layer must have at least one neuron");
  SPARKXD_REQUIRE(p.tau_m_ms > 0.0f && p.tau_theta_ms > 0.0f,
                  "time constants must be positive");
  SPARKXD_REQUIRE(dt_ms > 0.0f, "dt must be positive");
  SPARKXD_REQUIRE(p.v_thresh > p.v_reset,
                  "threshold must sit above the reset potential");
}

void LifLayer::reset_dynamics() {
  std::fill(v_.begin(), v_.end(), p_.v_rest);
  std::fill(refractory_.begin(), refractory_.end(), 0);
}

bool LifLayer::silent_at_rest(const std::vector<float>& theta) const {
  SPARKXD_REQUIRE(theta.size() == v_.size(),
                  "theta width must match layer size");
  for (const float th : theta)
    if (!(p_.v_rest < p_.v_thresh + th)) return false;
  return true;
}

template <class Theta>
void LifLayer::step(const std::vector<float>& input_current, Theta& theta,
                    std::vector<std::uint32_t>& spikes_out) {
  constexpr bool plastic = !std::is_const_v<Theta>;
  SPARKXD_REQUIRE(input_current.size() == v_.size(),
                  "input current width must match layer size");
  SPARKXD_REQUIRE(theta.size() == v_.size(),
                  "theta width must match layer size");
  const std::size_t n = v_.size();
  float* v = v_.data();
  std::int32_t* refr = refractory_.data();
  const float* cur = input_current.data();
  // Constants in locals: a store through `v` or `theta` may alias the
  // members, which would force a reload per neuron.
  const float v_rest = p_.v_rest;
  const float v_reset = p_.v_reset;
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
  const float v_thresh = p_.v_thresh;
  for (std::size_t i = 0; i < n; ++i) {
    if (refr[i] > 0) {
      --refr[i];
      continue;
    }
    if (v[i] >= v_thresh + theta[i])
      spikes_out.push_back(static_cast<std::uint32_t>(i));
  }
  const bool compete = plastic || p_.compete_at_inference;
  // Hard WTA: of the simultaneous crossings keep only the neuron whose
  // potential exceeds its threshold by the largest margin.
  if (compete && p_.winner_take_all && spikes_out.size() > 1) {
    std::uint32_t best = spikes_out.front();
    float best_margin = v_[best] - theta[best];
    for (const auto s : spikes_out) {
      const float margin = v_[s] - theta[s];
      if (margin > best_margin) {
        best = s;
        best_margin = margin;
      }
    }
    spikes_out.assign(1, best);
  }
  for (const auto s : spikes_out) {
    v_[s] = p_.v_reset;
    refractory_[s] = p_.refractory_steps;
    if constexpr (plastic) theta[s] += p_.theta_plus;
  }
  // Lateral inhibition: each spike pushes every *other* neuron down.
  if (compete && !spikes_out.empty() && p_.inhibition > 0.0f) {
    const float total =
        p_.inhibition * static_cast<float>(spikes_out.size());
    for (std::size_t i = 0; i < n; ++i) v_[i] -= total;
    // Spiking neurons should not inhibit themselves: undo their own share.
    for (const auto s : spikes_out) v_[s] += p_.inhibition;
    // Do not let inhibition push potentials unphysically far below reset.
    const float floor = p_.v_rest - 5.0f * p_.v_thresh;
    for (std::size_t i = 0; i < n; ++i) v_[i] = v_[i] < floor ? floor : v_[i];
  }
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
