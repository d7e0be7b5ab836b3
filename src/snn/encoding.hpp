#pragma once
// Poisson rate coding (paper §V: "rate coding and the Poisson distribution
// for converting the input samples into spike trains").
//
// A pixel of intensity p in [0,1] emits a spike in each simulation step with
// probability p * max_rate — a Bernoulli approximation of a Poisson process
// sampled at dt, which is the standard discrete-time formulation.
//
// Draw discipline: each step draws exactly one next_u64() per active
// (non-zero) pixel, in ascending pixel order, and the pixel spikes iff
// `uniform() < p`. The comparison runs on integers: uniform() is
// (u >> 11) * 2^-53, both sides scale by 2^53 exactly, and (u >> 11) is an
// integer, so
//   uniform() < p   <=>   (u >> 11) < ceil(p * 2^53).
// set_image computes that threshold once per pixel (spike_threshold); p = 1
// gives 2^53 (always spikes) and a product that underflows to 0 gives 0
// (never spikes, though the pixel still draws).

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::snn {

/// Integer threshold for a per-step spike probability p in [0, 1]:
/// ceil(p * 2^53), so that `spike_fires(u, thr)` equals `uniform() < p`.
[[nodiscard]] inline std::uint64_t spike_threshold(float p) noexcept {
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(p) * 0x1.0p53));
}

/// Whether the raw draw `u` spikes a pixel of threshold `thr`.
[[nodiscard]] inline bool spike_fires(std::uint64_t u,
                                      std::uint64_t thr) noexcept {
  return (u >> 11) < thr;
}

/// Converts images into per-step lists of spiking input indices.
class PoissonEncoder {
 public:
  /// max_rate = spike probability per step at full intensity, in (0, 1].
  explicit PoissonEncoder(float max_rate);

  /// Prepares the encoder for a new image: records which pixels can spike.
  void set_image(const std::vector<float>& image);

  /// Samples the set of input indices that spike in one step, in ascending
  /// order. The output vector is reused storage owned by the caller.
  void step(Rng& rng, std::vector<std::uint32_t>& spikes_out) const;

  /// Number of pixels that can spike for the current image. Zero means
  /// step() never draws from the Rng, which lets Network::infer
  /// short-circuit an all-zero sample without desynchronizing the stream.
  [[nodiscard]] std::size_t active_pixels() const noexcept {
    return active_idx_.size();
  }

 private:
  float max_rate_;
  std::vector<std::uint32_t> active_idx_;  ///< pixels with non-zero intensity
  std::vector<std::uint64_t> active_thr_;  ///< their spike_threshold(p)
};

}  // namespace sparkxd::snn
