#pragma once
// Test-only oracle for the STDP training pass: the scalar kernels
// Network::train_step is pinned against — a row-major synaptic gather, the
// branchy STDP update, the row-wise normalisation and the single-pass LIF
// step — replayed on a Network through its public API. The production
// kernels (transposed gather, branch-free selects, split LIF step) must
// match it bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoding.hpp"
#include "snn/network.hpp"
#include "snn/stdp.hpp"

namespace sparkxd::testutil {

/// The STDP update at a postsynaptic spike, one branch per weight.
inline void oracle_stdp_post_update(float* w_row, std::size_t n_inputs,
                                    const std::vector<float>& x_pre) {
  constexpr snn::StdpParams p{};
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const float drive = x_pre[i] - p.x_target;
    const float dw = drive > 0.0f ? p.eta * drive * (p.w_max - w_row[i])
                                  : p.eta * drive * (w_row[i] - p.w_min);
    w_row[i] = std::clamp(w_row[i] + dw, p.w_min, p.w_max);
  }
}

/// Rescales every row of one layer's row-major weights (`ni` inputs per
/// row) to sum to `target`, one row at a time; rows summing to <= 0 are
/// left alone.
inline void oracle_normalize_layer(std::span<float> w, std::size_t ni,
                                   float target) {
  for (std::size_t n = 0; n * ni < w.size(); ++n) {
    float* row = w.data() + n * ni;
    float sum = 0.0f;
    for (std::size_t i = 0; i < ni; ++i) sum += row[i];
    if (sum <= 0.0f) continue;
    const float scale = target / sum;
    for (std::size_t i = 0; i < ni; ++i) row[i] *= scale;
  }
}

/// oracle_normalize_layer on every layer of `net`, then rebuilds the
/// transposes from the row-major result.
inline void oracle_normalize_rows(snn::Network& net) {
  for (std::size_t l = 0; l < net.n_layers(); ++l)
    oracle_normalize_layer(net.weights_delta(l), net.config().layer_inputs(l),
                           net.config().norm_target);
  net.sync_transpose();
}

/// The LIF training step as one pass per neuron: integrate, decay the
/// threshold and test the crossing in the same iteration.
class OracleLif {
 public:
  explicit OracleLif(std::size_t n)
      : decay_m_(std::exp(-snn::NetworkConfig::dt_ms / p_.tau_m_ms)),
        decay_theta_(std::exp(-snn::NetworkConfig::dt_ms / p_.tau_theta_ms)),
        v_(n, p_.v_rest),
        refractory_(n, 0) {}

  void train_step(const std::vector<float>& current, std::vector<float>& theta,
                  std::vector<std::uint32_t>& spikes) {
    spikes.clear();
    const std::size_t n = v_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (refractory_[i] > 0) {
        --refractory_[i];
        v_[i] = p_.v_reset;
        continue;
      }
      v_[i] = p_.v_rest + (v_[i] - p_.v_rest) * decay_m_ + current[i];
      theta[i] *= decay_theta_;
      if (v_[i] >= p_.v_thresh + theta[i])
        spikes.push_back(static_cast<std::uint32_t>(i));
    }
    if (spikes.size() > 1) {
      std::uint32_t best = spikes.front();
      float best_margin = v_[best] - theta[best];
      for (const auto s : spikes) {
        const float margin = v_[s] - theta[s];
        if (margin > best_margin) {
          best = s;
          best_margin = margin;
        }
      }
      spikes.assign(1, best);
    }
    for (const auto s : spikes) {
      v_[s] = p_.v_reset;
      refractory_[s] = p_.refractory_steps;
      theta[s] += p_.theta_plus;
    }
    if (!spikes.empty() && p_.inhibition > 0.0f) {
      const float total = p_.inhibition * static_cast<float>(spikes.size());
      for (std::size_t i = 0; i < n; ++i) v_[i] -= total;
      for (const auto s : spikes) v_[s] += p_.inhibition;
      const float floor = p_.v_rest - 5.0f * p_.v_thresh;
      for (std::size_t i = 0; i < n; ++i)
        if (v_[i] < floor) v_[i] = floor;
    }
  }

 private:
  static constexpr snn::LifParams p_{};
  float decay_m_;
  float decay_theta_;
  std::vector<float> v_;
  std::vector<std::int32_t> refractory_;
};

/// One training sample on `net`, row-major: the reference for
/// Network::train_step (same draws, same spikes, same per-weight update
/// order). Trains copies of the weights and thresholds, normalises the
/// weights, and replaces `net` with a network built from the result.
/// Returns the output layer's spike counts.
inline std::vector<std::uint32_t> oracle_train_step(
    snn::Network& net, const std::vector<float>& image, Rng& rng) {
  const snn::NetworkConfig& cfg = net.config();
  const std::size_t n_layers = net.n_layers();
  std::vector<OracleLif> lif;
  std::vector<snn::PreTraces> traces;
  for (std::size_t l = 0; l < n_layers; ++l) {
    lif.emplace_back(cfg.layer_neurons(l));
    traces.emplace_back(cfg.layer_inputs(l));
  }
  snn::PoissonEncoder encoder(cfg.max_rate);
  encoder.set_image(image);

  std::vector<std::vector<float>> weights, thetas;
  for (std::size_t l = 0; l < n_layers; ++l) {
    weights.push_back(net.weights(l));
    thetas.push_back(net.thetas(l));
  }

  std::vector<std::uint32_t> counts(cfg.layer_neurons(n_layers - 1), 0);
  std::vector<std::uint32_t> in_spikes;
  std::vector<std::vector<std::uint32_t>> out_spikes(n_layers);
  std::vector<float> current;
  for (std::size_t t = 0; t < cfg.timesteps; ++t) {
    encoder.step(rng, in_spikes);
    const std::vector<std::uint32_t>* spikes = &in_spikes;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const std::size_t ni = cfg.layer_inputs(l);
      const std::size_t nn = cfg.layer_neurons(l);
      std::vector<float>& w = weights[l];
      traces[l].step(*spikes);
      current.assign(nn, 0.0f);
      if (!spikes->empty()) {
        for (std::size_t n = 0; n < nn; ++n) {
          const float* row = w.data() + n * ni;
          float acc = 0.0f;
          for (const auto i : *spikes) acc += row[i];
          current[n] = acc;
        }
      }
      lif[l].train_step(current, thetas[l], out_spikes[l]);
      for (const auto s : out_spikes[l]) {
        if (l + 1 == n_layers) ++counts[s];
        oracle_stdp_post_update(w.data() + std::size_t{s} * ni, ni,
                                traces[l].values());
      }
      spikes = &out_spikes[l];
    }
  }
  for (std::size_t l = 0; l < n_layers; ++l)
    oracle_normalize_layer(weights[l], cfg.layer_inputs(l), cfg.norm_target);
  net = snn::Network(cfg, std::move(weights), std::move(thetas));
  return counts;
}

}  // namespace sparkxd::testutil
