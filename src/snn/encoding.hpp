#pragma once
// Poisson rate coding (paper §V: "rate coding and the Poisson distribution
// for converting the input samples into spike trains").
//
// A pixel of intensity p in [0,1] emits a spike in each simulation step with
// probability p * max_rate — a Bernoulli approximation of a Poisson process
// sampled at dt, which is the standard discrete-time formulation.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::snn {

/// Converts images into per-step lists of spiking input indices.
class PoissonEncoder {
 public:
  /// max_rate = spike probability per step at full intensity, in (0, 1].
  explicit PoissonEncoder(float max_rate);

  /// Prepares the encoder for a new image: records which pixels can spike.
  void set_image(const std::vector<float>& image);

  /// Samples the set of input indices that spike in one step. The output
  /// vector is reused storage owned by the caller.
  void step(Rng& rng, std::vector<std::uint32_t>& spikes_out) const;

  /// Expected number of input spikes per step for the current image.
  [[nodiscard]] double expected_spikes_per_step() const noexcept;

  /// Number of pixels that can spike for the current image. Zero means
  /// step() never draws from the Rng, which lets Network::infer
  /// short-circuit an all-zero sample without desynchronizing the stream.
  [[nodiscard]] std::size_t active_pixels() const noexcept {
    return active_idx_.size();
  }

 private:
  float max_rate_;
  std::vector<std::uint32_t> active_idx_;  ///< pixels with non-zero intensity
  std::vector<float> active_p_;            ///< their per-step probabilities
};

}  // namespace sparkxd::snn
