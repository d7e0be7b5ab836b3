#include "snn/network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace sparkxd::snn {

const NetworkConfig& require_valid(const NetworkConfig& cfg) {
  SPARKXD_REQUIRE(cfg.n_inputs > 0 && cfg.n_neurons > 0,
                  "network dimensions must be positive");
  for (const std::size_t h : cfg.hidden_neurons)
    SPARKXD_REQUIRE(h > 0, "hidden layer sizes must be positive");
  // A model file's shape is untrusted until here: refuse a layer whose
  // n_in x n_out overflows (so no shape product below wraps) or exceeds
  // 2^32 synapses.
  constexpr std::size_t kMaxLayerWeights = std::size_t{1} << 32;
  for (std::size_t l = 0; l < cfg.n_layers(); ++l)
    SPARKXD_REQUIRE(cfg.layer_inputs(l) <=
                        kMaxLayerWeights / cfg.layer_neurons(l),
                    "layer n_in x n_out exceeds 2^32 synapses");
  // 65 s of simulated time per sample at 1 ms steps: more is a wrapped
  // count, and every sample would loop that long.
  constexpr std::size_t kMaxTimesteps = std::size_t{1} << 16;
  SPARKXD_REQUIRE(cfg.timesteps > 0 && cfg.timesteps <= kMaxTimesteps,
                  "timesteps per sample must lie in [1, 2^16]");
  return cfg;
}

namespace {
/// Fixed-point scale for the kEventFx synaptic accumulator: Q47.16. Weights
/// live in [0, ~norm_target], so 16 fractional bits keep quantization below
/// 1e-5 of a unit threshold while 47 integer bits can absorb any realistic
/// fan-in without overflow.
constexpr float kFxScale = 65536.0f;

/// Checks `cfg`, then draws every layer's initial weights, uniform in
/// [0, 0.3] (the constructor normalizes them) — the standard
/// initialization for this architecture. Stream discipline: the OUTPUT
/// layer draws from Rng(seed) — exactly the legacy single-layer stream, so
/// an empty hidden stack reproduces the pre-stack weights bit for bit —
/// while hidden layer l draws from the independent substream
/// Rng(hash_combine(seed, l + 1)).
std::vector<std::vector<float>> initial_weights(const NetworkConfig& cfg) {
  const std::size_t n_layers = require_valid(cfg).n_layers();
  std::vector<std::vector<float>> weights;
  for (std::size_t l = 0; l < n_layers; ++l) {
    Rng rng(l + 1 == n_layers ? cfg.seed : hash_combine(cfg.seed, l + 1));
    auto& w = weights.emplace_back(cfg.layer_weight_count(l));
    for (float& x : w) x = static_cast<float>(rng.uniform(0.0, 0.3));
  }
  return weights;
}

/// Every layer's initial thresholds: zero.
std::vector<std::vector<float>> zero_thetas(const NetworkConfig& cfg) {
  std::vector<std::vector<float>> thetas;
  for (std::size_t l = 0; l < cfg.n_layers(); ++l)
    thetas.emplace_back(cfg.layer_neurons(l), 0.0f);
  return thetas;
}
}  // namespace

InferenceState::InferenceState(const Network& net)
    : encoder_(NetworkConfig::max_rate) {
  layers_.reserve(net.layers_.size());
  for (const auto& lay : net.layers_)
    layers_.push_back({lay.lif, lay.n_in, std::vector<float>(lay.n_out, 0.0f),
                       {}, std::vector<std::int64_t>(lay.n_out, 0)});
}

Network::Layer::Layer(std::size_t n_in_, std::vector<float> w_,
                      std::vector<float> theta_)
    : n_in(n_in_),
      n_out(theta_.size()),
      w(std::move(w_)),
      wt(w.size()),
      theta(std::move(theta_)),
      lif(n_out),
      traces(n_in_),
      current(n_out, 0.0f) {
  transpose();
}

// Braces evaluate the arguments in order: initial_weights checks `cfg`
// before anything is allocated.
Network::Network(const NetworkConfig& cfg)
    : Network{cfg, initial_weights(cfg), zero_thetas(cfg)} {
  normalize_rows();
}

Network::Network(const NetworkConfig& cfg,
                 std::vector<std::vector<float>> weights,
                 std::vector<std::vector<float>> thetas)
    : cfg_(require_valid(cfg)), encoder_(NetworkConfig::max_rate) {
  const std::size_t n_layers = cfg.n_layers();
  SPARKXD_REQUIRE(weights.size() == n_layers && thetas.size() == n_layers,
                  "need one weight and one theta vector per layer");
  layers_.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const std::size_t n_in = cfg.layer_inputs(l);
    const std::size_t n_out = cfg.layer_neurons(l);
    SPARKXD_REQUIRE(weights[l].size() == n_in * n_out,
                    "weights do not match the layer's n_out x n_in shape");
    // The event-fx kernel sums each weight's Q47.16 image (|w| * 2^16) over
    // the layer's fan-in in an int64: bound the sum below 2^62. The bound
    // also rejects NaN and +-inf (the comparison is false for both).
    const double fx_bound =
        0x1p62 / (static_cast<double>(kFxScale) * static_cast<double>(n_in));
    for (const float v : weights[l])
      SPARKXD_REQUIRE(std::fabs(static_cast<double>(v)) < fx_bound,
                      "weights must be finite and fit the Q47.16 accumulator");
    SPARKXD_REQUIRE(thetas[l].size() == n_out,
                    "thetas do not match the layer's neuron count");
    for (const float v : thetas[l])
      SPARKXD_REQUIRE(std::isfinite(v), "thetas must be finite");
    layers_.emplace_back(n_in, std::move(weights[l]), std::move(thetas[l]));
  }
}

void Network::Layer::transpose() {
  for (std::size_t n = 0; n < n_out; ++n) {
    const float* row = w.data() + n * n_in;
    for (std::size_t i = 0; i < n_in; ++i) wt[i * n_out + n] = row[i];
  }
}

void Network::sync_transpose() {
  for (Layer& lay : layers_) lay.transpose();
}

void Network::normalize_rows() {
  for (Layer& lay : layers_) lay.normalize();
}

void Network::Layer::normalize() {
  // Every neuron's row sum, accumulated over the transposed layout: input
  // i's column adds to all neurons at once (vectorised across neurons),
  // and each neuron still sums its inputs in ascending i — the row loop's
  // order, so the sums are bitwise those of the row loop. The sums and
  // scales live in `current`, train_step's per-timestep scratch, which is
  // idle between samples.
  std::fill(current.begin(), current.end(), 0.0f);
  float* k = current.data();
  for (std::size_t i = 0; i < n_in; ++i) {
    const float* col = wt.data() + i * n_out;
    for (std::size_t n = 0; n < n_out; ++n) k[n] += col[n];
  }
  // A row with sum <= 0 is left alone: its scale is 1, and x * 1 == x for
  // every value such a row can hold (a NaN would have made its sum NaN).
  for (std::size_t n = 0; n < n_out; ++n) {
    const float q = NetworkConfig::norm_target / k[n];
    k[n] = k[n] <= 0.0f ? 1.0f : q;
  }
  for (std::size_t i = 0; i < n_in; ++i) {
    float* col = wt.data() + i * n_out;
    for (std::size_t n = 0; n < n_out; ++n) col[n] *= k[n];
  }
  for (std::size_t n = 0; n < n_out; ++n) {
    float* row = w.data() + n * n_in;
    const float kn = k[n];
    for (std::size_t i = 0; i < n_in; ++i) row[i] *= kn;
  }
}

void Network::Layer::gather(const std::vector<std::uint32_t>& spikes,
                            std::vector<float>& current) const {
  std::fill(current.begin(), current.end(), 0.0f);
  float* cur = current.data();
  for (const auto i : spikes) {
    const float* col = wt.data() + std::size_t{i} * n_out;
    for (std::size_t n = 0; n < n_out; ++n) cur[n] += col[n];
  }
}

std::vector<std::uint32_t> Network::train_step(const std::vector<float>& image,
                                               Rng& rng) {
  SPARKXD_REQUIRE(image.size() == cfg_.n_inputs,
                  "image size must match n_inputs");
  for (Layer& lay : layers_) {
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
      lay.gather(*spikes, lay.current);
      lay.lif.train_step(lay.current, lay.theta, lay.out_spikes);
      // STDP moves a spiking neuron's row; writing it through to the
      // transposed column lets the next step's gather see the update.
      const std::size_t ni = lay.n_in;
      const std::size_t nn = lay.n_out;
      for (const auto s : lay.out_spikes) {
        if (l + 1 == n_layers) ++counts[s];
        float* row = lay.w.data() + std::size_t{s} * ni;
        stdp_post_update(row, ni, lay.traces.values());
        float* col = lay.wt.data() + s;
        for (std::size_t i = 0; i < ni; ++i) col[i * nn] = row[i];
      }
      spikes = &lay.out_spikes;
    }
  }

  normalize_rows();
  return counts;
}

std::vector<std::uint32_t> Network::infer(InferenceState& state,
                                          const std::vector<float>& image,
                                          Rng& rng) const {
  SPARKXD_REQUIRE(image.size() == cfg_.n_inputs,
                  "image size must match n_inputs");
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
      // float gather (train_step's too) adds each neuron's inputs in
      // spike-list order; kEventFx quantizes each weight to Q47.16 at read
      // time and sums in int64, which is independent of addition order.
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
        lay.gather(*spikes, slice.current);
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
