#include "snn/encoding.hpp"

#include "common/contracts.hpp"

namespace sparkxd::snn {

PoissonEncoder::PoissonEncoder(float max_rate) : max_rate_(max_rate) {
  SPARKXD_REQUIRE(max_rate > 0.0f && max_rate <= 1.0f,
                  "max_rate must be a per-step probability in (0, 1]");
}

void PoissonEncoder::set_image(const std::vector<float>& image) {
  active_idx_.clear();
  active_thr_.clear();
  for (std::size_t i = 0; i < image.size(); ++i) {
    // Validate BEFORE the activity filter: a negative or NaN pixel fails
    // `> 0.0f` and used to slip through silently as "inactive".
    SPARKXD_REQUIRE(image[i] >= 0.0f && image[i] <= 1.0f,
                    "pixel intensities must be in [0,1]");
    if (image[i] > 0.0f) {
      active_idx_.push_back(static_cast<std::uint32_t>(i));
      active_thr_.push_back(spike_threshold(image[i] * max_rate_));
    }
  }
}

void PoissonEncoder::step(Rng& rng,
                          std::vector<std::uint32_t>& spikes_out) const {
  // Branchless append: write every index, advance the count on a spike.
  // The local Rng copy keeps the generator state in registers.
  const std::size_t n_active = active_idx_.size();
  spikes_out.resize(n_active);
  std::uint32_t* out = spikes_out.data();
  Rng local = rng;
  std::size_t n = 0;
  for (std::size_t k = 0; k < n_active; ++k) {
    out[n] = active_idx_[k];
    n += spike_fires(local.next_u64(), active_thr_[k]);
  }
  rng = local;
  spikes_out.resize(n);
}

}  // namespace sparkxd::snn
