// Tests for the LIF neuron layer: integration, leak, threshold/reset,
// refractoriness, adaptive threshold (homeostasis), lateral inhibition and
// the per-step winner-take-all. The thresholds are caller-owned: each test
// keeps its own `theta` vector, as snn::Network does per layer. The
// constants are LifParams'; a one-neuron layer isolates integration from
// the competition (a lone spiker's inhibition is refunded to itself).

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "snn/lif.hpp"

namespace sparkxd::snn {
namespace {

TEST(Lif, IntegratesInputUntilThreshold) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{0.3f};
  std::vector<std::uint32_t> spikes;
  int steps_to_spike = 0;
  for (int t = 0; t < 50 && spikes.empty(); ++t) {
    layer.train_step(current, theta, spikes);
    ++steps_to_spike;
  }
  ASSERT_EQ(spikes.size(), 1u);
  // v accumulates ~0.3/step with mild leak: threshold 1.0 crossed around
  // step 4.
  EXPECT_GE(steps_to_spike, 3);
  EXPECT_LE(steps_to_spike, 6);
}

TEST(Lif, NoInputNoSpikes) {
  LifLayer layer(4);
  std::vector<float> theta(4, 0.0f);
  std::vector<float> current(4, 0.0f);
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 100; ++t) {
    layer.train_step(current, theta, spikes);
    EXPECT_TRUE(spikes.empty());
  }
}

TEST(Lif, SubthresholdInputNeverFires) {
  // With leak, v converges to I / (1 - decay); keep that below threshold.
  // tau_m = 25 ms: decay ~0.9608 -> v_inf = I / 0.0392.
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{0.03f};  // v_inf ~ 0.77 < 1.0
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 500; ++t) {
    layer.train_step(current, theta, spikes);
    EXPECT_TRUE(spikes.empty());
  }
  EXPECT_LT(layer.potentials()[0], 1.0f);
  EXPECT_GT(layer.potentials()[0], 0.7f);
}

TEST(Lif, ResetAfterSpike) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{1.5f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(layer.potentials()[0], 0.0f);  // v_reset
}

TEST(Lif, RefractoryBlocksSpiking) {
  static_assert(LifParams::refractory_steps == 3);
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{5.0f};  // would fire every step otherwise
  std::vector<std::uint32_t> spikes;
  int fired = 0;
  for (int t = 0; t < 12; ++t) {
    layer.train_step(current, theta, spikes);
    fired += static_cast<int>(spikes.size());
  }
  // One spike then 3 silent steps -> every 4th step fires.
  EXPECT_EQ(fired, 3);
}

TEST(Lif, RefractoryNeuronKeepsItsThreshold) {
  // A held neuron skips the whole step, threshold decay included. One
  // step's decay of theta_plus (a factor 1 - 1.7e-5) is still ~140 float
  // ulps, so any decay during the hold would show.
  constexpr float plus = LifParams::theta_plus;
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{5.0f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  ASSERT_EQ(theta[0], plus);
  for (int t = 0; t < LifParams::refractory_steps; ++t) {
    layer.train_step(current, theta, spikes);
    EXPECT_TRUE(spikes.empty()) << t;
    EXPECT_EQ(theta[0], plus) << t;
  }
  layer.train_step(current, theta, spikes);
  EXPECT_EQ(spikes.size(), 1u);
  const float decay =
      std::exp(-NetworkConfig::dt_ms / LifParams::tau_theta_ms);
  EXPECT_EQ(theta[0], plus * decay + plus);
  EXPECT_LT(theta[0], 2.0f * plus);
}

TEST(Lif, RefractoryNeuronNeverCrossesANegativeThreshold) {
  // theta = -2 puts v_thresh + theta = -1 below v_reset = 0, so a held
  // neuron sitting at v_reset would "cross" if the scan did not skip it.
  LifLayer layer(1);
  const std::vector<float> theta(1, -2.0f);
  const std::vector<float> current(1, 0.0f);
  std::vector<std::uint32_t> spikes;
  std::vector<int> fired_at;
  for (int t = 0; t < 12; ++t) {
    layer.infer_step(current, theta, spikes);
    if (!spikes.empty()) {
      EXPECT_EQ(spikes, (std::vector<std::uint32_t>{0})) << t;
      fired_at.push_back(t);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int>{0, 4, 8}));
}

TEST(Lif, LeakDecaysPotential) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{0.5f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  const float v1 = layer.potentials()[0];
  current[0] = 0.0f;
  for (int t = 0; t < 20; ++t) layer.train_step(current, theta, spikes);
  EXPECT_LT(layer.potentials()[0], v1 * 0.6f);
}

TEST(Lif, TrainStepGrowsThetaPerSpike) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{5.0f};
  std::vector<std::uint32_t> spikes;
  int fired = 0;
  // Spikes at steps 0, 4, 8 and 12 (three refractory steps after each).
  for (int t = 0; t < 13; ++t) {
    layer.train_step(current, theta, spikes);
    fired += static_cast<int>(spikes.size());
  }
  EXPECT_EQ(fired, 4);
  EXPECT_NEAR(theta[0], 4.0f * LifParams::theta_plus, 1e-5f);
}

TEST(Lif, InferStepLeavesThetaFrozen) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{5.0f};
  std::vector<std::uint32_t> spikes;
  int fired = 0;
  for (int t = 0; t < 10; ++t) {
    layer.infer_step(current, theta, spikes);
    fired += static_cast<int>(spikes.size());
  }
  EXPECT_GT(fired, 1);
  EXPECT_EQ(theta[0], 0.0f);
}

TEST(Lif, ThetaRaisesEffectiveThreshold) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{1.5f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);  // fires at once under a zero theta
  // theta = 100 -> needs v >= 101; current 1.5/step saturates at
  // v_inf = 1.5 / (1 - exp(-1/25)) ~ 38, far below the raised threshold
  // (which decays by under 0.4% over the run).
  theta[0] = 100.0f;
  int fired = 0;
  for (int t = 0; t < 200; ++t) {
    layer.train_step(current, theta, spikes);
    fired += static_cast<int>(spikes.size());
  }
  EXPECT_EQ(fired, 0);
}

TEST(Lif, WinnerTakeAllSelectsLargestMargin) {
  LifLayer layer(3);
  std::vector<float> theta(3, 0.0f);
  // All three cross threshold this step; neuron 1 by the largest margin.
  std::vector<float> current{1.2f, 1.8f, 1.5f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 1u);
}

TEST(Lif, InferenceCompetesLikeTraining) {
  LifLayer layer(3);
  std::vector<float> theta(3, 0.0f);
  std::vector<float> current{1.2f, 1.8f, 1.5f};
  std::vector<std::uint32_t> spikes;
  layer.infer_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 1u);
  // The losers are inhibited too.
  EXPECT_LT(layer.potentials()[0], 0.0f);
  EXPECT_LT(layer.potentials()[2], 0.0f);
}

TEST(Lif, LateralInhibitionSuppressesOthers) {
  LifLayer layer(2);
  std::vector<float> theta(2, 0.0f);
  // Neuron 0 fires; neuron 1 was close to threshold.
  std::vector<float> current{1.5f, 0.9f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 0u);
  EXPECT_LT(layer.potentials()[1], -3.0f);  // pushed far below rest
}

TEST(Lif, InhibitionFloorBoundsPotential) {
  // Neuron 0 fires at steps 0 and 4. The second spike would push neuron 1
  // (recovered to ~-4.3) to ~-9.3; the floor v_rest - 5 v_thresh holds it
  // at -5.
  LifLayer layer(2);
  std::vector<float> theta(2, 0.0f);
  std::vector<float> current{1.5f, 0.0f};
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 5; ++t) layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(layer.potentials()[1], -5.0f);
}

TEST(Lif, SpikerDoesNotInhibitItself) {
  LifLayer layer(2);
  std::vector<float> theta(2, 0.0f);
  std::vector<float> current{1.5f, 0.0f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  // Winner is at v_reset + own-share refund = inhibition > 0 undone;
  // it must be far above the suppressed neighbour.
  EXPECT_GT(layer.potentials()[0], layer.potentials()[1] + 3.0f);
}

TEST(Lif, ResetDynamicsClearsPotentialAndRefractory) {
  LifLayer layer(1);
  std::vector<float> theta(1, 0.0f);
  std::vector<float> current{5.0f};
  std::vector<std::uint32_t> spikes;
  layer.train_step(current, theta, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  layer.train_step(current, theta, spikes);
  ASSERT_TRUE(spikes.empty());  // refractory
  layer.reset_dynamics();
  EXPECT_EQ(layer.potentials()[0], 0.0f);
  // The refractory counter is cleared too: the next drive fires at once.
  layer.train_step(current, theta, spikes);
  EXPECT_EQ(spikes.size(), 1u);
}

TEST(Lif, RejectsAnEmptyLayer) {
  EXPECT_THROW(LifLayer(0), ContractViolation);
}

TEST(Lif, RestPredicatesGateEventSkipping) {
  // silent_at_rest: only when every threshold v_thresh + theta sits strictly
  // above rest is a zero-input inference step provably the identity.
  LifLayer layer(2);
  std::vector<float> theta(2, 0.0f);
  EXPECT_TRUE(layer.silent_at_rest(theta));
  theta[1] = -0.999f;  // just above rest: still silent
  EXPECT_TRUE(layer.silent_at_rest(theta));
  theta[1] = -1.0f;  // this neuron's threshold drops to rest: it can fire
  EXPECT_FALSE(layer.silent_at_rest(theta));
  theta[1] = -3.0f;  // below rest
  EXPECT_FALSE(layer.silent_at_rest(theta));
}

TEST(Lif, RejectsMismatchedCurrentWidth) {
  LifLayer layer(3);
  std::vector<float> theta(3, 0.0f);
  std::vector<float> current(2, 0.0f);
  std::vector<std::uint32_t> spikes;
  EXPECT_THROW(layer.train_step(current, theta, spikes), ContractViolation);
  EXPECT_THROW(layer.infer_step(current, theta, spikes), ContractViolation);
}

TEST(Lif, RejectsMismatchedThetaWidth) {
  // The thresholds are caller-owned: a vector of the wrong width must be
  // refused before any step indexes it.
  LifLayer layer(3);
  const std::vector<float> current(3, 2.0f);
  std::vector<std::uint32_t> spikes;
  for (const std::size_t width : {std::size_t{0}, std::size_t{2},
                                  std::size_t{4}}) {
    std::vector<float> theta(width, 0.0f);
    EXPECT_THROW(layer.train_step(current, theta, spikes), ContractViolation)
        << width;
    EXPECT_THROW(layer.infer_step(current, theta, spikes), ContractViolation)
        << width;
    EXPECT_THROW((void)layer.silent_at_rest(theta), ContractViolation)
        << width;
  }
}

}  // namespace
}  // namespace sparkxd::snn
