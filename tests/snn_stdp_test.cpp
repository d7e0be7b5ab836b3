// Tests for Poisson rate coding, presynaptic traces and the STDP update.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/contracts.hpp"
#include "snn/encoding.hpp"
#include "snn/stdp.hpp"
#include "train_oracle_util.hpp"

namespace sparkxd::snn {
namespace {

// ------------------------------------------------------------ Poisson coding

TEST(Encoding, RateProportionalToIntensity) {
  PoissonEncoder enc(0.5f);
  std::vector<float> image(4, 0.0f);
  image[0] = 1.0f;   // expect rate 0.5
  image[1] = 0.5f;   // expect rate 0.25
  image[2] = 0.1f;   // expect rate 0.05
  enc.set_image(image);
  Rng rng(42);
  std::vector<int> counts(4, 0);
  std::vector<std::uint32_t> spikes;
  const int steps = 20000;
  for (int t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    for (const auto s : spikes) ++counts[s];
  }
  EXPECT_NEAR(counts[0] / double(steps), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / double(steps), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / double(steps), 0.05, 0.01);
  EXPECT_EQ(counts[3], 0);  // zero pixel never spikes
}

TEST(Encoding, DeterministicGivenRngState) {
  PoissonEncoder enc(0.3f);
  std::vector<float> img(10, 0.7f);
  enc.set_image(img);
  Rng a(5), b(5);
  std::vector<std::uint32_t> sa, sb;
  for (int t = 0; t < 100; ++t) {
    enc.step(a, sa);
    enc.step(b, sb);
    EXPECT_EQ(sa, sb);
  }
}

TEST(Encoding, RejectsBadRateAndPixels) {
  EXPECT_THROW(PoissonEncoder(0.0f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(1.5f), ContractViolation);
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({2.0f}), ContractViolation);
}

TEST(Encoding, SpikeTrainCountIsBinomial) {
  // Total spikes over a window should match the Binomial mean/variance.
  PoissonEncoder enc(0.2f);
  std::vector<float> img(100, 1.0f);
  enc.set_image(img);
  Rng rng(9);
  std::vector<std::uint32_t> spikes;
  double sum = 0.0, sum2 = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    enc.step(rng, spikes);
    const double k = static_cast<double>(spikes.size());
    sum += k;
    sum2 += k * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 20.0, 0.5);      // n*p
  EXPECT_NEAR(var, 16.0, 2.0);       // n*p*(1-p)
}

// -------------------------------------------------------------------- traces

TEST(PreTracesTest, SetToOneOnSpikeAndDecay) {
  PreTraces traces(3);
  traces.step({1});
  EXPECT_EQ(traces.values()[1], 1.0f);
  EXPECT_EQ(traces.values()[0], 0.0f);
  traces.step({});
  const float decay =
      std::exp(-NetworkConfig::dt_ms / StdpParams::tau_pre_ms);
  EXPECT_NEAR(traces.values()[1], decay, 1e-5);
  traces.step({});
  EXPECT_NEAR(traces.values()[1], decay * decay, 1e-5);
}

TEST(PreTracesTest, ResetClears) {
  PreTraces traces(2);
  traces.step({0, 1});
  traces.reset();
  EXPECT_EQ(traces.values()[0], 0.0f);
  EXPECT_EQ(traces.values()[1], 0.0f);
}

TEST(PreTracesTest, RepeatedSpikesSaturateAtOne) {
  PreTraces traces(1);
  for (int t = 0; t < 50; ++t) traces.step({0});
  EXPECT_EQ(traces.values()[0], 1.0f);
}

TEST(PreTracesTest, RejectsOutOfRangeSpike) {
  PreTraces traces(2);
  EXPECT_THROW(traces.step({5}), ContractViolation);
}

// ---------------------------------------------------------------------- STDP

constexpr StdpParams p{};

TEST(Stdp, PotentiatesRecentlyActiveInputs) {
  std::vector<float> w{0.5f};
  const std::vector<float> x{0.9f};  // above x_target
  stdp_post_update(w.data(), 1, x);
  EXPECT_GT(w[0], 0.5f);
}

TEST(Stdp, DepressesStaleInputs) {
  std::vector<float> w{0.5f};
  const std::vector<float> x{0.0f};  // below x_target
  stdp_post_update(w.data(), 1, x);
  EXPECT_LT(w[0], 0.5f);
}

TEST(Stdp, NoChangeAtTargetTrace) {
  std::vector<float> w{0.5f};
  const std::vector<float> x{p.x_target};
  stdp_post_update(w.data(), 1, x);
  EXPECT_FLOAT_EQ(w[0], 0.5f);
}

TEST(Stdp, PotentiationSaturatesAtWmax) {
  std::vector<float> w{1.0f};
  const std::vector<float> x{1.0f};
  stdp_post_update(w.data(), 1, x);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
}

TEST(Stdp, DepressionWorksFromWmax) {
  // The fault-recovery property: a weight stuck at w_max (e.g. corrupted
  // upward by a bit flip) must still be depressible.
  std::vector<float> w{1.0f};
  const std::vector<float> x{0.0f};
  stdp_post_update(w.data(), 1, x);
  EXPECT_LT(w[0], 1.0f);
}

TEST(Stdp, DepressionStopsAtWmin) {
  std::vector<float> w{0.0f};
  const std::vector<float> x{0.0f};
  stdp_post_update(w.data(), 1, x);
  EXPECT_FLOAT_EQ(w[0], 0.0f);
}

TEST(Stdp, WeightsStayInBounds) {
  Rng rng(3);
  std::vector<float> w(100);
  std::vector<float> x(100);
  for (auto& v : w) v = static_cast<float>(rng.uniform());
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    stdp_post_update(w.data(), w.size(), x);
    for (const float v : w) {
      EXPECT_GE(v, p.w_min);
      EXPECT_LE(v, p.w_max);
    }
  }
}

TEST(Stdp, UpdateScalesWithDriveAndHeadroom) {
  // dw = eta * drive * (w_max - w) up, eta * drive * (w - w_min) down.
  std::vector<float> w{0.5f, 0.5f, 0.75f, 0.5f};
  const float full = 1.0f;                        // drive 1 - x_target
  const float half = 0.5f * (1.0f + p.x_target);  // half that drive
  const std::vector<float> x{full, half, full, 0.0f};
  stdp_post_update(w.data(), w.size(), x);
  const float up = w[0] - 0.5f;
  EXPECT_FLOAT_EQ(up, p.eta * (1.0f - p.x_target) * (p.w_max - 0.5f));
  EXPECT_NEAR(w[1] - 0.5f, 0.5f * up, 1e-6f);
  EXPECT_NEAR(w[2] - 0.75f, 0.5f * up, 1e-6f);  // half the headroom
  EXPECT_FLOAT_EQ(w[3] - 0.5f, p.eta * -p.x_target * (0.5f - p.w_min));
}

TEST(Stdp, RepeatedPairingConvergesTowardWmax) {
  std::vector<float> w{0.1f};
  const std::vector<float> x{1.0f};
  for (int i = 0; i < 500; ++i) stdp_post_update(w.data(), 1, x);
  EXPECT_GT(w[0], 0.95f);
}

TEST(Stdp, RejectsMismatchedTraceWidth) {
  std::vector<float> w(3, 0.5f);
  const std::vector<float> x(2, 0.5f);
  EXPECT_THROW(stdp_post_update(w.data(), 3, x), ContractViolation);
}

TEST(Stdp, MatchesTheScalarOracleBitwiseOnEdgeInputs) {
  // Every pairing of edge weights with edge traces: NaN drive, drive == 0,
  // weights at +-inf, NaN, at and past the bounds, and a denormal. The
  // branch-free kernel must reproduce the branchy one bit for bit.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> weights{p.w_min, p.w_max, -inf,   inf,
                                   nan,     0.5f,    -0.0f,  1e-40f,
                                   3.0f,    -1.0f,   0.3f,   0.07f};
  const std::vector<float> traces{nan,  p.x_target, 0.0f,  1.0f,
                                  0.5f, -inf,       inf,   0.123f,
                                  0.77f};
  std::vector<float> w, x;
  for (const float wi : weights)
    for (const float xi : traces) {
      w.push_back(wi);
      x.push_back(xi);
    }
  const std::vector<float> w_in = w;
  std::vector<float> ref = w;
  stdp_post_update(w.data(), w.size(), x);
  testutil::oracle_stdp_post_update(ref.data(), ref.size(), x);
  for (std::size_t i = 0; i < w.size(); ++i) {
    // A NaN weight plus a NaN update: x86 returns the first operand's NaN,
    // and the compiler may commute the addition, so only NaN-ness is
    // defined there.
    if (std::isnan(w_in[i]) && std::isnan(ref[i])) {
      EXPECT_TRUE(std::isnan(w[i]));
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint32_t>(w[i]),
              std::bit_cast<std::uint32_t>(ref[i]))
        << "w " << w_in[i] << " x " << x[i];
  }
}

}  // namespace
}  // namespace sparkxd::snn
