// Differential coverage of the inference kernel, Network::infer.
//
// The contract under test: the kernel skips only provably-identity work (an
// all-zero sample, an empty wave into an at-rest layer), so in float mode
// (kEvent) it produces BITWISE-identical spike counts — and consumes the
// identical Rng stream — as a dense reference that integrates every layer
// every timestep. The reference below is built from the public
// API only. The fixed-point mode (kEventFx) is deterministic and plausible
// but numerically its own path; it is locked by the smoke-digits-event-fx
// golden (scenario_test), so here it only gets determinism + sanity
// assertions. Cases cover random / all-zero / single-pixel / max-density
// images, low spike density and deep stacks; every case but the all-zero
// ones must spike, so a broken skip cannot hide behind silent outputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "snn/encoding.hpp"
#include "snn/lif.hpp"
#include "snn/network.hpp"

namespace sparkxd {
namespace {

using snn::EngineKind;
using snn::InferenceState;
using snn::Network;
using snn::NetworkConfig;

NetworkConfig base_config() {
  NetworkConfig cfg;
  cfg.n_inputs = 784;
  cfg.n_neurons = 30;
  cfg.timesteps = 40;
  cfg.seed = 7;
  return cfg;
}

/// A deterministic pseudo-random image in [0, 1] with roughly `density` of
/// its pixels active.
std::vector<float> random_image(std::size_t n, std::uint64_t seed,
                                double density) {
  Rng rng(seed);
  std::vector<float> img(n, 0.0f);
  for (auto& px : img)
    if (rng.uniform() < density) px = static_cast<float>(rng.uniform());
  return img;
}

/// `net` rebuilt with every weight scaled by `k`: heavier rows, as a
/// larger normalisation target would give.
Network scaled(const Network& net, float k) {
  std::vector<std::vector<float>> weights, thetas;
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    weights.push_back(net.weights(l));
    for (float& w : weights.back()) w *= k;
    thetas.push_back(net.thetas(l));
  }
  return Network(net.config(), std::move(weights), std::move(thetas));
}

/// Gives the network non-trivial thetas/weights so the differential is not
/// running on virgin state.
void warm_up(Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (int pass = 0; pass < 2; ++pass)
    (void)net.train_step(random_image(net.config().n_inputs, seed + pass, 0.4),
                         rng);
}

/// The dense reference: every layer integrates every timestep (no
/// skipping), gathering the row-major weights over the spike list in spike
/// order — the kernel's per-neuron float addition sequence.
std::vector<std::uint32_t> reference_infer(const Network& net,
                                           const std::vector<float>& image,
                                           Rng& rng) {
  const NetworkConfig& cfg = net.config();
  std::vector<snn::LifLayer> lifs;
  for (std::size_t l = 0; l < net.n_layers(); ++l)
    lifs.emplace_back(cfg.layer_neurons(l));
  snn::PoissonEncoder encoder(cfg.max_rate);
  encoder.set_image(image);
  std::vector<std::uint32_t> counts(cfg.n_neurons, 0), in_spikes;
  std::vector<std::vector<std::uint32_t>> out(net.n_layers());
  for (std::size_t t = 0; t < cfg.timesteps; ++t) {
    encoder.step(rng, in_spikes);
    const std::vector<std::uint32_t>* spikes = &in_spikes;
    for (std::size_t l = 0; l < net.n_layers(); ++l) {
      const std::size_t n_in = cfg.layer_inputs(l);
      const std::vector<float>& w = net.weights(l);
      std::vector<float> current(lifs[l].size(), 0.0f);
      for (std::size_t n = 0; n < current.size(); ++n)
        for (const auto i : *spikes) current[n] += w[n * n_in + i];
      lifs[l].infer_step(current, net.thetas(l), out[l]);
      spikes = &out[l];
    }
    for (const auto s : *spikes) ++counts[s];
  }
  return counts;
}

/// Runs infer in float mode and the reference from the same Rng seed,
/// asserting bitwise-equal counts AND an identical stream position
/// afterwards (one extra draw from each Rng must coincide). Returns the
/// reference's total output spike count.
std::uint64_t expect_matches_reference(const Network& net,
                                       const std::vector<float>& image,
                                       std::uint64_t rng_seed) {
  Rng ref_rng(rng_seed);
  const auto expected = reference_infer(net, image, ref_rng);
  InferenceState state(net);
  Rng rng(rng_seed);
  EXPECT_EQ(net.infer(state, image, rng), expected);
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64())
      << "infer consumed a different Rng stream length";
  return std::accumulate(expected.begin(), expected.end(), std::uint64_t{0});
}

TEST(EventEngine, MatchesDenseOnRandomImages) {
  Network net(base_config());
  warm_up(net, 11);
  for (std::uint64_t s = 0; s < 8; ++s)
    EXPECT_GT(expect_matches_reference(
                  net,
                  random_image(784, 100 + s,
                               0.05 + 0.1 * static_cast<double>(s)),
                  200 + s),
              0u)
        << "image " << s;
}

TEST(EventEngine, MatchesDenseOnAllZeroImage) {
  // The whole-sample short-circuit: no active pixels, zero Rng draws.
  Network net(base_config());
  warm_up(net, 12);
  EXPECT_EQ(expect_matches_reference(net, std::vector<float>(784, 0.0f), 5),
            0u);
}

TEST(EventEngine, MatchesDenseOnSinglePixelImage) {
  // Heavier rows so one pixel's spike train can drive the output layer.
  Network warm(base_config());
  warm_up(warm, 13);
  const Network net = scaled(warm, 100.0f / NetworkConfig::norm_target);
  std::vector<float> img(784, 0.0f);
  img[391] = 1.0f;
  EXPECT_GT(expect_matches_reference(net, img, 6), 0u);
}

TEST(EventEngine, MatchesDenseOnMaxDensityImage) {
  Network net(base_config());
  warm_up(net, 14);
  EXPECT_GT(expect_matches_reference(net, std::vector<float>(784, 1.0f), 7),
            0u);
}

TEST(EventEngine, MatchesDenseAtVeryLowSpikeDensity) {
  // Almost every timestep is an empty wave: the skip machinery does real
  // work here and must stay invisible in the results. Dim pixels (a spike
  // probability of at most 0.02 per step), heavier rows and a longer window
  // let the sparse input still drive output spikes.
  auto cfg = base_config();
  cfg.timesteps = 100;
  Network warm(cfg);
  warm_up(warm, 15);
  const Network net = scaled(warm, 200.0f / NetworkConfig::norm_target);
  for (std::uint64_t s = 0; s < 8; ++s) {
    auto img = random_image(784, 300 + s, 0.03);
    for (float& px : img) px *= 0.02f / NetworkConfig::max_rate;
    EXPECT_GT(expect_matches_reference(net, img, 400 + s), 0u)
        << "image " << s;
  }
}

TEST(EventEngine, MatchesDenseOnDeepStacks) {
  // Hidden layers sit at rest until the first wave arrives — the per-layer
  // skip is exercised hardest in a stack.
  auto cfg = base_config();
  cfg.hidden_neurons = {20, 12};
  Network warm(cfg);
  warm_up(warm, 16);
  const Network net = scaled(warm, 100.0f / NetworkConfig::norm_target);
  EXPECT_EQ(expect_matches_reference(net, std::vector<float>(784, 0.0f), 8),
            0u);
  EXPECT_GT(expect_matches_reference(net, random_image(784, 41, 0.02), 9), 0u);
  EXPECT_GT(expect_matches_reference(net, random_image(784, 42, 0.5), 10), 0u);
}

TEST(EventEngine, RejectsStateOfADifferentlyShapedNetwork) {
  // Same depth and output width, different fan-in: the state's slices were
  // sized for 64 inputs and must not be run against 784.
  auto narrow_cfg = base_config();
  narrow_cfg.n_inputs = 64;
  const Network narrow(narrow_cfg);
  Network wide(base_config());
  wide.set_engine(EngineKind::kEventFx);
  InferenceState state(narrow);
  Rng rng(3);
  EXPECT_THROW((void)wide.infer(state, random_image(784, 4, 0.3), rng),
               ContractViolation);
}

TEST(EventEngine, FixedPointModeIsDeterministicAndSane) {
  Network net(base_config());
  warm_up(net, 18);
  net.set_engine(EngineKind::kEventFx);
  InferenceState s1(net), s2(net);
  const auto img = random_image(784, 51, 0.3);
  Rng a(61), b(61);
  const auto c1 = net.infer(s1, img, a);
  const auto c2 = net.infer(s2, img, b);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Same stream length as the float engines too (quantization changes
  // values, never Rng consumption).
  Network float_net = net;
  float_net.set_engine(EngineKind::kEvent);
  InferenceState s3(float_net);
  Rng c(61);
  (void)float_net.infer(s3, img, c);
  (void)c.next_u64();  // `a` is one draw ahead from the comparison above
  EXPECT_EQ(a.next_u64(), c.next_u64());
  // And an all-zero image still short-circuits to silence.
  InferenceState s4(net);
  Rng d(62);
  for (const auto n : net.infer(s4, std::vector<float>(784, 0.0f), d))
    EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace sparkxd
