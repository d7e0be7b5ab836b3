#include "snn/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::snn {

namespace {
/// Fixed-point scale for the kEventFx synaptic accumulator: Q47.16. Weights
/// live in [0, ~norm_target], so 16 fractional bits keep quantization below
/// 1e-5 of a unit threshold while 47 integer bits can absorb any realistic
/// fan-in without overflow.
constexpr float kFxScale = 65536.0f;
}  // namespace

InferenceState::InferenceState(const Network& net)
    : encoder_(net.cfg_.max_rate) {
  layers_.reserve(net.layers_.size());
  for (const auto& lay : net.layers_)
    layers_.push_back({lay.lif, lay.n_in, std::vector<float>(lay.n_out, 0.0f),
                       {}, std::vector<std::int64_t>(lay.n_out, 0)});
}

Network::Layer::Layer(std::size_t n_in_, std::size_t n_out_,
                      const NetworkConfig& cfg)
    : n_in(n_in_),
      n_out(n_out_),
      w(n_in_ * n_out_),
      wt(n_in_ * n_out_),
      theta(n_out_, 0.0f),
      lif(n_out_, cfg.lif, cfg.dt_ms),
      traces(n_in_, cfg.stdp.tau_pre_ms, cfg.dt_ms),
      current(n_out_, 0.0f) {}

Network::Network(const NetworkConfig& cfg)
    : cfg_(cfg), encoder_(cfg.max_rate) {
  SPARKXD_REQUIRE(cfg.n_inputs > 0 && cfg.n_neurons > 0,
                  "network dimensions must be positive");
  for (const std::size_t h : cfg.hidden_neurons)
    SPARKXD_REQUIRE(h > 0, "hidden layer sizes must be positive");
  SPARKXD_REQUIRE(cfg.timesteps > 0, "need at least one timestep per sample");
  SPARKXD_REQUIRE(cfg.norm_target > 0.0f, "norm_target must be positive");

  const std::size_t n_layers = cfg.n_layers();
  layers_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    layers_.emplace_back(cfg.layer_inputs(l), cfg.layer_neurons(l), cfg);

  // Uniform random initial weights in [0, 0.3], then normalized — the
  // standard initialization for this architecture. Stream discipline: the
  // OUTPUT layer draws from Rng(seed) — exactly the legacy single-layer
  // stream, so an empty hidden stack reproduces the pre-stack weights bit
  // for bit — while hidden layer l draws from the independent substream
  // Rng(hash_combine(seed, l + 1)).
  for (std::size_t l = 0; l < n_layers; ++l) {
    Rng rng(l + 1 == n_layers ? cfg.seed : hash_combine(cfg.seed, l + 1));
    for (float& w : layers_[l].w) w = static_cast<float>(rng.uniform(0.0, 0.3));
  }
  normalize_rows();
  sync_transpose();
}

void Network::sync_transpose() {
  for (Layer& lay : layers_) {
    if (lay.wt_synced) continue;
    lay.require_shape();
    for (std::size_t n = 0; n < lay.n_out; ++n) {
      const float* row = lay.w.data() + n * lay.n_in;
      for (std::size_t i = 0; i < lay.n_in; ++i)
        lay.wt[i * lay.n_out + n] = row[i];
    }
    lay.wt_synced = true;
  }
}

bool Network::transpose_synced() const noexcept {
  for (const Layer& lay : layers_)
    if (!lay.wt_synced) return false;
  return true;
}

void Network::normalize_rows() {
  for (Layer& lay : layers_) {
    lay.require_shape();
    const std::size_t ni = lay.n_in;
    for (std::size_t n = 0; n < lay.n_out; ++n) {
      float* row = lay.w.data() + n * ni;
      float sum = 0.0f;
      for (std::size_t i = 0; i < ni; ++i) sum += row[i];
      if (sum <= 0.0f) continue;
      const float scale = cfg_.norm_target / sum;
      for (std::size_t i = 0; i < ni; ++i) row[i] *= scale;
    }
    lay.wt_synced = false;
  }
}

std::vector<std::uint32_t> Network::train_step(const std::vector<float>& image,
                                               Rng& rng) {
  SPARKXD_REQUIRE(image.size() == cfg_.n_inputs,
                  "image size must match n_inputs");
  for (Layer& lay : layers_) {
    lay.require_shape();
    lay.lif.reset_dynamics();
    lay.traces.reset();
  }
  encoder_.set_image(image);

  const std::size_t n_layers = layers_.size();
  std::vector<std::uint32_t> counts(layers_.back().n_out, 0);

  for (std::size_t t = 0; t < cfg_.timesteps; ++t) {
    encoder_.step(rng, in_spikes_);

    // Feed the spike wave through the stack: layer l's output spikes are
    // layer l+1's input spikes within the same timestep.
    const std::vector<std::uint32_t>* spikes = &in_spikes_;
    for (std::size_t l = 0; l < n_layers; ++l) {
      Layer& lay = layers_[l];
      lay.traces.step(*spikes);

      // Synaptic drive: per-neuron sum over this step's spiking inputs.
      // Training reads the row-major array directly: STDP updates weight
      // rows mid-sample and the next step's gather must see them.
      std::fill(lay.current.begin(), lay.current.end(), 0.0f);
      if (!spikes->empty()) {
        const std::size_t ni = lay.n_in;
        for (std::size_t n = 0; n < lay.n_out; ++n) {
          const float* row = lay.w.data() + n * ni;
          float acc = 0.0f;
          for (const auto i : *spikes) acc += row[i];
          lay.current[n] = acc;
        }
      }

      lay.lif.train_step(lay.current, lay.theta, lay.out_spikes);
      for (const auto s : lay.out_spikes) {
        if (l + 1 == n_layers) ++counts[s];
        stdp_post_update(lay.w.data() + static_cast<std::size_t>(s) * lay.n_in,
                         lay.n_in, lay.traces.values(), cfg_.stdp);
      }
      spikes = &lay.out_spikes;
    }
  }

  normalize_rows();  // also marks the transposes stale
  return counts;
}

std::vector<std::uint32_t> Network::infer(InferenceState& state,
                                          const std::vector<float>& image,
                                          Rng& rng) const {
  SPARKXD_REQUIRE(image.size() == cfg_.n_inputs,
                  "image size must match n_inputs");
  SPARKXD_REQUIRE(transpose_synced(),
                  "infer needs synced transposes — call sync_transpose()");
  const std::size_t n_layers = layers_.size();
  SPARKXD_REQUIRE(state.layers_.size() == n_layers,
                  "InferenceState was built for a different network depth");
  bool all_skip_ok = true;
  for (std::size_t l = 0; l < n_layers; ++l) {
    auto& slice = state.layers_[l];
    SPARKXD_REQUIRE(slice.n_in == layers_[l].n_in &&
                        slice.current.size() == layers_[l].n_out,
                    "InferenceState was built for a different network shape");
    slice.lif.reset_dynamics();
    slice.skip_ok = slice.lif.silent_at_rest(layers_[l].theta);
    slice.at_rest = true;
    all_skip_ok &= slice.skip_ok;
  }
  state.encoder_.set_image(image);
  std::vector<std::uint32_t> counts(layers_.back().n_out, 0);
  // Whole-sample short-circuit: no active pixels means zero Rng draws per
  // step, so skipping all timesteps consumes the exact same stream.
  if (state.encoder_.active_pixels() == 0 && all_skip_ok) return counts;

  const bool fx = cfg_.engine == EngineKind::kEventFx;
  for (std::size_t t = 0; t < cfg_.timesteps; ++t) {
    state.encoder_.step(rng, state.in_spikes_);
    const std::vector<std::uint32_t>* spikes = &state.in_spikes_;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const Layer& lay = layers_[l];
      auto& slice = state.layers_[l];
      // An empty wave into a layer still exactly at rest (with thresholds
      // strictly above rest) is the identity step: skip it outright.
      if (spikes->empty() && slice.skip_ok && slice.at_rest) {
        slice.out_spikes.clear();
        spikes = &slice.out_spikes;
        continue;
      }

      // Synaptic drive: transposed-column gather over the spike list. The
      // float sums keep the per-neuron addition order of the row-major walk;
      // kEventFx quantizes each weight to Q47.16 at read time and sums in
      // int64, which is independent of addition order.
      const std::size_t nn = lay.n_out;
      if (fx) {
        auto& acc = slice.acc;
        std::fill(acc.begin(), acc.end(), std::int64_t{0});
        for (const auto i : *spikes) {
          const float* col = lay.wt.data() + std::size_t{i} * nn;
          for (std::size_t n = 0; n < nn; ++n)
            acc[n] += static_cast<std::int64_t>(
                std::llrintf(col[n] * kFxScale));
        }
        for (std::size_t n = 0; n < nn; ++n)
          slice.current[n] = static_cast<float>(acc[n]) / kFxScale;
      } else {
        std::fill(slice.current.begin(), slice.current.end(), 0.0f);
        float* cur = slice.current.data();
        for (const auto i : *spikes) {
          const float* col = lay.wt.data() + std::size_t{i} * nn;
          for (std::size_t n = 0; n < nn; ++n) cur[n] += col[n];
        }
      }
      slice.lif.infer_step(slice.current, lay.theta, slice.out_spikes);
      slice.at_rest = false;

      if (l + 1 == n_layers)
        for (const auto s : slice.out_spikes) ++counts[s];
      spikes = &slice.out_spikes;
    }
  }
  return counts;
}

}  // namespace sparkxd::snn
