#pragma once
// Leaky integrate-and-fire neuron layer with adaptive thresholds
// (homeostasis), refractory periods, and all-to-all lateral inhibition —
// the excitatory layer of the paper's Fig. 4a architecture.

#include <cstdint>
#include <vector>

#include "snn/params.hpp"

namespace sparkxd::snn {

/// A population of LIF neurons advanced in discrete steps.
///
/// Dynamics per step (dt):
///   v <- v_rest + (v - v_rest) * exp(-dt/tau_m) + I
///   spike if v >= v_thresh + theta  ->  v = v_reset, refractory, theta +=
///   theta_plus (when plastic); every spike subtracts `inhibition` from all
///   other neurons' potentials (lateral inhibition).
class LifLayer {
 public:
  LifLayer(std::size_t n, const LifParams& p, float dt_ms);

  /// Clears membrane potentials and refractory counters (not theta — the
  /// adaptive threshold persists across samples by design).
  void reset_dynamics();

  /// Clears everything including the adaptive thresholds.
  void reset_all();

  /// Enables/disables plasticity of the adaptive threshold. During
  /// evaluation theta is frozen (standard for this architecture) so that
  /// inference is deterministic given the weights.
  void set_plastic(bool plastic) noexcept { plastic_ = plastic; }

  /// Advances one step with per-neuron input current; appends spiking neuron
  /// indices to `spikes_out` (cleared first).
  void step(const std::vector<float>& input_current,
            std::vector<std::uint32_t>& spikes_out);

  /// True when a zero-input step is provably the identity for any at-rest
  /// state: plasticity frozen (theta neither decays nor grows) and every
  /// threshold strictly above the resting potential, so a neuron sitting at
  /// v_rest with no drive can never cross. Network::infer checks this once
  /// per sample before it is allowed to skip empty timesteps.
  [[nodiscard]] bool silent_at_rest() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] const std::vector<float>& potentials() const noexcept {
    return v_;
  }
  [[nodiscard]] const std::vector<float>& thetas() const noexcept {
    return theta_;
  }
  /// Direct theta access for snapshot/restore in the trainer.
  [[nodiscard]] std::vector<float>& thetas_mut() noexcept { return theta_; }

 private:
  LifParams p_;
  float decay_m_;      ///< exp(-dt/tau_m)
  float decay_theta_;  ///< exp(-dt/tau_theta)
  bool plastic_ = true;
  std::vector<float> v_;
  std::vector<float> theta_;
  std::vector<std::int32_t> refractory_;
};

}  // namespace sparkxd::snn
