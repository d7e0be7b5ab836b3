#pragma once
// STDP weight update (postsynaptic-spike-triggered formulation; see the
// StdpParams doc comment in params.hpp for the rule and its provenance).

#include <cstddef>
#include <vector>

#include "snn/params.hpp"

namespace sparkxd::snn {

/// Presynaptic spike traces: x_i <- x_i * exp(-dt/tau_pre) each step, set
/// to 1 when input i spikes. Values stay in [0, 1].
class PreTraces {
 public:
  explicit PreTraces(std::size_t n_inputs);

  void reset();
  /// Decays all traces by one step, then sets spiking inputs' traces to 1.
  void step(const std::vector<std::uint32_t>& input_spikes);

  [[nodiscard]] const std::vector<float>& values() const noexcept {
    return x_;
  }

 private:
  float decay_;
  std::vector<float> x_;
};

/// Applies the STDP update (StdpParams) to one neuron's weight row at a
/// postsynaptic spike: with drive = x_pre_i - x_target,
///   w_i += eta * drive * (w_max - w_i)   if drive > 0,
///   w_i += eta * drive * (w_i - w_min)   otherwise,
/// clamped to [w_min, w_max] (std::clamp semantics: a NaN stays NaN).
/// `w_row` points at n_inputs contiguous weights. The loop has no branch,
/// so it vectorises.
void stdp_post_update(float* w_row, std::size_t n_inputs,
                      const std::vector<float>& x_pre);

}  // namespace sparkxd::snn
