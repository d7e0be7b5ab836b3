#pragma once
// Leaky integrate-and-fire neuron layer with adaptive thresholds
// (homeostasis), refractory periods, and all-to-all lateral inhibition —
// the excitatory layer of the paper's Fig. 4a architecture.
//
// The layer holds only per-sample dynamics (potentials, refractory
// counters); its constants are snn::LifParams. The adaptive thresholds are
// trained parameters and belong to the caller — snn::Network keeps one
// vector per layer — so each step takes them as an argument: mutable while
// training, const at inference.

#include <cstdint>
#include <vector>

#include "snn/params.hpp"

namespace sparkxd::snn {

/// A population of LIF neurons advanced in discrete steps.
///
/// Dynamics per step (dt):
///   v <- v_rest + (v - v_rest) * exp(-dt/tau_m) + I
///   spike if v >= v_thresh + theta  ->  v = v_reset, refractory; every
///   spike subtracts `inhibition` from all other neurons' potentials
///   (lateral inhibition). While training, theta also decays every step and
///   grows by theta_plus per spike.
class LifLayer {
 public:
  /// `n` neurons at rest. Throws ContractViolation when `n` is zero.
  explicit LifLayer(std::size_t n);

  /// Clears membrane potentials and refractory counters.
  void reset_dynamics();

  /// Training step: `theta` decays, grows by theta_plus on every spike, and
  /// the neurons always compete (WTA + lateral inhibition). Appends spiking
  /// neuron indices to `spikes_out` (cleared first). Throws
  /// ContractViolation when `input_current` or `theta` is not size() wide.
  void train_step(const std::vector<float>& input_current,
                  std::vector<float>& theta,
                  std::vector<std::uint32_t>& spikes_out);

  /// Inference step: `theta` is frozen (standard for this architecture, so
  /// inference is deterministic given the weights); the neurons compete as
  /// in training. Same contract as train_step.
  void infer_step(const std::vector<float>& input_current,
                  const std::vector<float>& theta,
                  std::vector<std::uint32_t>& spikes_out);

  /// True when a zero-input infer_step is provably the identity for any
  /// at-rest state: every threshold v_thresh + theta sits strictly above
  /// the resting potential, so a neuron at v_rest with no drive can never
  /// cross. Network::infer checks this once per sample before it is
  /// allowed to skip empty timesteps. Throws ContractViolation when `theta`
  /// is not size() wide.
  [[nodiscard]] bool silent_at_rest(const std::vector<float>& theta) const;

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] const std::vector<float>& potentials() const noexcept {
    return v_;
  }

 private:
  /// The one step body: `Theta` is `std::vector<float>` for train_step
  /// (plastic thresholds) and `const std::vector<float>` for infer_step.
  /// A branch-free integrate pass over all neurons (vectorised) is followed
  /// by a scalar scan that counts down refractory neurons and collects the
  /// threshold crossings.
  template <class Theta>
  void step(const std::vector<float>& input_current, Theta& theta,
            std::vector<std::uint32_t>& spikes_out);

  float decay_m_;      ///< exp(-dt/tau_m)
  float decay_theta_;  ///< exp(-dt/tau_theta)
  std::vector<float> v_;
  std::vector<std::int32_t> refractory_;
};

}  // namespace sparkxd::snn
