// Differential coverage of the event-driven inference engine.
//
// The contract under test: Network::infer with EngineKind::kEvent produces
// BITWISE-identical spike counts — and consumes the identical Rng stream —
// as the dense transposed-gather reference, on every input (the skipping
// logic may only elide provably-identity work). The fixed-point mode
// (kEventFx) is deterministic and plausible but numerically its own path;
// it is locked by the smoke-digits-event-fx golden (scenario_test), so here
// it only gets determinism + sanity assertions.
//
// Two levels:
//   * unit sweeps over Network::infer — random / all-zero / single-pixel /
//     max-density images, low spike density, deep stacks;
//   * scenario-level runs of every pre-existing golden scenario with the
//     event engine at 1 and 8 threads, whose digests must equal the dense
//     digests byte for byte (modulo the gated "engine=" header line).

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "snn/network.hpp"
#include "test_env_util.hpp"

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

/// Gives the network non-trivial thetas/weights so the differential is not
/// running on virgin state.
void warm_up(Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (int pass = 0; pass < 2; ++pass)
    (void)net.train_step(random_image(net.config().n_inputs, seed + pass, 0.4),
                         rng);
  net.sync_transpose();
}

/// Runs infer twice on copies of the network — once per engine — from the
/// same Rng seed, and asserts bitwise-equal counts AND an identical stream
/// position afterwards (one extra draw from each Rng must coincide).
void expect_engines_bitwise_equal(const Network& net,
                                  const std::vector<float>& image,
                                  std::uint64_t rng_seed,
                                  EngineKind other = EngineKind::kEvent) {
  Network dense = net;
  dense.set_engine(EngineKind::kDense);
  Network event = net;
  event.set_engine(other);
  InferenceState dense_state(dense);
  InferenceState event_state(event);
  Rng a(rng_seed), b(rng_seed);
  const auto dense_counts = dense.infer(dense_state, image, a);
  const auto event_counts = event.infer(event_state, image, b);
  EXPECT_EQ(dense_counts, event_counts);
  EXPECT_EQ(a.next_u64(), b.next_u64())
      << "engines consumed different Rng stream lengths";
}

TEST(EventEngine, MatchesDenseOnRandomImages) {
  Network net(base_config());
  warm_up(net, 11);
  for (std::uint64_t s = 0; s < 8; ++s)
    expect_engines_bitwise_equal(
        net, random_image(784, 100 + s, 0.05 + 0.1 * static_cast<double>(s)),
        200 + s);
}

TEST(EventEngine, MatchesDenseOnAllZeroImage) {
  // The whole-sample short-circuit: no active pixels, zero Rng draws.
  Network net(base_config());
  warm_up(net, 12);
  const std::vector<float> black(784, 0.0f);
  expect_engines_bitwise_equal(net, black, 5);

  Network event = net;
  event.set_engine(EngineKind::kEvent);
  InferenceState state(event);
  Rng rng(5);
  for (const auto c : event.infer(state, black, rng)) EXPECT_EQ(c, 0u);
}

TEST(EventEngine, MatchesDenseOnSinglePixelImage) {
  Network net(base_config());
  warm_up(net, 13);
  std::vector<float> img(784, 0.0f);
  img[391] = 1.0f;
  expect_engines_bitwise_equal(net, img, 6);
}

TEST(EventEngine, MatchesDenseOnMaxDensityImage) {
  Network net(base_config());
  warm_up(net, 14);
  expect_engines_bitwise_equal(net, std::vector<float>(784, 1.0f), 7);
}

TEST(EventEngine, MatchesDenseAtVeryLowSpikeDensity) {
  // Almost every timestep is an empty wave: the skip/re-arm machinery does
  // real work here and must stay invisible in the results.
  auto cfg = base_config();
  cfg.max_rate = 0.02f;
  Network net(cfg);
  warm_up(net, 15);
  for (std::uint64_t s = 0; s < 8; ++s)
    expect_engines_bitwise_equal(net, random_image(784, 300 + s, 0.03),
                                 400 + s);
}

TEST(EventEngine, MatchesDenseOnDeepStacks) {
  // Hidden layers sit at rest until the first wave arrives — the per-layer
  // skip is exercised hardest in a stack.
  auto cfg = base_config();
  cfg.hidden_neurons = {20, 12};
  Network net(cfg);
  warm_up(net, 16);
  expect_engines_bitwise_equal(net, std::vector<float>(784, 0.0f), 8);
  expect_engines_bitwise_equal(net, random_image(784, 41, 0.02), 9);
  expect_engines_bitwise_equal(net, random_image(784, 42, 0.5), 10);
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
  Network dense = net;
  dense.set_engine(EngineKind::kDense);
  InferenceState s3(dense);
  Rng c(61);
  (void)dense.infer(s3, img, c);
  (void)c.next_u64();  // `a` is one draw ahead from the comparison above
  EXPECT_EQ(a.next_u64(), c.next_u64());
  // And an all-zero image still short-circuits to silence.
  InferenceState s4(net);
  Rng d(62);
  for (const auto n : net.infer(s4, std::vector<float>(784, 0.0f), d))
    EXPECT_EQ(n, 0u);
}

// ------------------------------------------------- scenario-level sweeps

/// Digest with the gated "engine=..." header line removed, so event-engine
/// digests can be compared byte for byte against the dense reference.
std::string strip_engine_line(const std::string& digest) {
  std::string out;
  std::size_t pos = 0;
  while (pos < digest.size()) {
    std::size_t end = digest.find('\n', pos);
    if (end == std::string::npos) end = digest.size();
    const std::string line = digest.substr(pos, end - pos);
    if (line.rfind("engine=", 0) != 0) out += line + "\n";
    pos = end + 1;
  }
  return out;
}

/// Param: index into scenario::kGoldenScenarios.
class EventVsDenseGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EventVsDenseGolden, DigestsMatchAtOneAndEightThreads) {
  const auto* s = scenario::find_scenario(scenario::kGoldenScenarios[GetParam()]);
  ASSERT_NE(s, nullptr);
  if (s->engine != EngineKind::kDense)
    GTEST_SKIP() << "non-dense golden locks its own engine";
  scenario::Scenario event = *s;
  event.engine = EngineKind::kEvent;
  for (const char* threads : {"1", "8"}) {
    testutil::ThreadsOverride scoped(threads);
    const auto dense_result = scenario::run_scenarios({*s}).front();
    const auto event_result = scenario::run_scenarios({event}).front();
    EXPECT_EQ(scenario::digest(dense_result),
              strip_engine_line(scenario::digest(event_result)))
        << s->name << " at " << threads << " thread(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGoldenScenarios, EventVsDenseGolden,
    ::testing::Range<std::size_t>(0u, std::size(scenario::kGoldenScenarios)));

}  // namespace
}  // namespace sparkxd
