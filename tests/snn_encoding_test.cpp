// Tests for the Poisson rate encoder (snn/encoding): spike-rate
// correctness, determinism per Rng stream, zero/full intensity behavior,
// and domain contracts. The encoder drives every spike train in the
// framework, so its rate and stream discipline underpin both the accuracy
// numbers and the bit-exact determinism contract.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "snn/encoding.hpp"

namespace sparkxd::snn {
namespace {

TEST(PoissonEncoder, EmpiricalRateMatchesIntensityTimesMaxRate) {
  // A pixel of intensity p spikes with probability p * max_rate per step:
  // over many steps the empirical frequency must land within a few standard
  // errors of that product, pixel by pixel.
  const float max_rate = 0.3f;
  PoissonEncoder enc(max_rate);
  const std::vector<float> image{0.1f, 0.5f, 1.0f, 0.0f, 0.25f};
  enc.set_image(image);
  const std::size_t steps = 20000;
  std::vector<std::size_t> counts(image.size(), 0);
  Rng rng(7);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    for (const auto i : spikes) ++counts[i];
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    const double p = static_cast<double>(image[i]) * max_rate;
    const double freq = static_cast<double>(counts[i]) / steps;
    const double sigma = std::sqrt(p * (1.0 - p) / steps);
    EXPECT_NEAR(freq, p, 5.0 * sigma + 1e-12) << "pixel " << i;
  }
}

TEST(PoissonEncoder, DeterministicPerRngStream) {
  // Identical Rng states must produce identical spike trains — the property
  // every fork-per-sample evaluation path in the framework leans on.
  PoissonEncoder enc(0.5f);
  std::vector<float> image(50);
  Rng img_rng(11);
  for (auto& p : image) p = static_cast<float>(img_rng.uniform());
  enc.set_image(image);
  Rng a(42), b(42), c(43);
  std::vector<std::uint32_t> sa, sb, sc;
  bool any_difference_from_c = false;
  for (std::size_t t = 0; t < 200; ++t) {
    enc.step(a, sa);
    enc.step(b, sb);
    enc.step(c, sc);
    EXPECT_EQ(sa, sb) << "same seed diverged at step " << t;
    any_difference_from_c |= sa != sc;
  }
  EXPECT_TRUE(any_difference_from_c) << "different seeds never diverged";
}

TEST(PoissonEncoder, SpikeIndicesAreSortedActivePixels) {
  PoissonEncoder enc(1.0f);
  const std::vector<float> image{0.0f, 0.8f, 0.0f, 0.9f, 0.7f};
  enc.set_image(image);
  Rng rng(3);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < 100; ++t) {
    enc.step(rng, spikes);
    for (std::size_t k = 0; k < spikes.size(); ++k) {
      EXPECT_GT(image[spikes[k]], 0.0f) << "zero pixel spiked";
      if (k > 0) {
        EXPECT_LT(spikes[k - 1], spikes[k]) << "indices unsorted";
      }
    }
  }
}

TEST(PoissonEncoder, ZeroPixelsNeverSpikeAndFullIntensityAlwaysDoes) {
  // At max_rate 1.0 a full-intensity pixel fires every step (uniform() < 1
  // is certain); zero pixels are not even enumerated as active.
  PoissonEncoder enc(1.0f);
  enc.set_image({1.0f, 0.0f, 1.0f});
  Rng rng(5);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < 50; ++t) {
    enc.step(rng, spikes);
    ASSERT_EQ(spikes.size(), 2u);
    EXPECT_EQ(spikes[0], 0u);
    EXPECT_EQ(spikes[1], 2u);
  }
}

/// Expected input spikes per step of `image`: the sum of each pixel's
/// exact spike probability, spike_threshold(p * max_rate) * 2^-53.
double expected_spikes_per_step(const std::vector<float>& image,
                                float max_rate) {
  double e = 0.0;
  for (const float p : image)
    if (p > 0.0f)
      e += static_cast<double>(spike_threshold(p * max_rate)) * 0x1.0p-53;
  return e;
}

TEST(PoissonEncoder, ExpectedSpikesPerStepSumsActiveProbabilities) {
  const std::vector<float> image{0.5f, 0.0f, 1.0f};
  EXPECT_NEAR(expected_spikes_per_step(image, 0.4f), 0.5 * 0.4 + 1.0 * 0.4,
              1e-6);
  EXPECT_EQ(expected_spikes_per_step(std::vector<float>(10, 0.0f), 0.4f), 0.0);
  // The encoder's mean spike count per step converges to that sum.
  PoissonEncoder enc(0.4f);
  enc.set_image(image);
  Rng rng(3);
  std::vector<std::uint32_t> spikes;
  const std::size_t steps = 20000;
  std::size_t total = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    enc.step(rng, spikes);
    total += spikes.size();
  }
  EXPECT_NEAR(static_cast<double>(total) / steps,
              expected_spikes_per_step(image, 0.4f), 0.02);
}

TEST(PoissonEncoder, SetImageResetsTheActiveSet) {
  PoissonEncoder enc(1.0f);
  enc.set_image({1.0f, 1.0f});
  enc.set_image({0.0f, 1.0f});  // the first image must not linger
  Rng rng(9);
  std::vector<std::uint32_t> spikes;
  enc.step(rng, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 1u);
}

TEST(PoissonEncoder, RejectsBadRatesAndIntensities) {
  EXPECT_THROW(PoissonEncoder(0.0f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(-0.1f), ContractViolation);
  EXPECT_THROW(PoissonEncoder(1.5f), ContractViolation);
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({0.5f, 1.2f}), ContractViolation);
}

TEST(PoissonEncoder, RejectsNegativeAndNanIntensities) {
  // Regression: the `> 0.0f` activity filter used to run before any
  // validation, so negative and NaN pixels slipped through silently as
  // "inactive" instead of failing the [0,1] domain contract.
  PoissonEncoder enc(0.5f);
  EXPECT_THROW(enc.set_image({0.5f, -0.1f}), ContractViolation);
  EXPECT_THROW(enc.set_image({-1.0f}), ContractViolation);
  EXPECT_THROW(enc.set_image({0.5f, std::nanf("")}), ContractViolation);
  // A rejected image must not leave a partial active set behind.
  enc.set_image({1.0f, 0.0f});
  EXPECT_EQ(enc.active_pixels(), 1u);
}

TEST(PoissonEncoder, ActivePixelsCountsNonZeroIntensities) {
  PoissonEncoder enc(0.5f);
  enc.set_image({0.0f, 0.3f, 1.0f, 0.0f});
  EXPECT_EQ(enc.active_pixels(), 2u);
  enc.set_image(std::vector<float>(8, 0.0f));
  EXPECT_EQ(enc.active_pixels(), 0u);
}

// ------------------------------------------------------ threshold boundary
// A random stream misses an off-by-one in the threshold (floor for ceil, or
// `<=` for `<`) with probability 2^-53 per draw, so the boundary is checked
// exhaustively over float exponents instead.

/// Every float exponent (subnormals included) with a few mantissas each,
/// plus 1.0 and random floats in (0, 1).
std::vector<float> threshold_sweep() {
  constexpr float kMinNormal = std::numeric_limits<float>::min();
  std::vector<float> ps{1.0f, std::numeric_limits<float>::denorm_min(),
                        kMinNormal, std::nextafter(kMinNormal, 0.0f)};
  for (int e = -149; e < 0; ++e)
    for (const float m : {1.0f, 1.25f, 1.5f, 1.9999999f}) {
      const float p = std::ldexp(m, e);
      if (p > 0.0f && p < 1.0f) ps.push_back(p);
    }
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const float p = static_cast<float>(rng.uniform()) * 0.3f;
    if (p > 0.0f) ps.push_back(p);
  }
  return ps;
}

TEST(PoissonEncoderThreshold, SplitsDrawsExactlyAtP) {
  constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
  const auto scaled = [](std::uint64_t x) {
    return static_cast<double>(x) * 0x1.0p-53;  // uniform() of draw x << 11
  };
  for (const float p : threshold_sweep()) {
    const double pd = p;
    const std::uint64_t thr = spike_threshold(p);
    ASSERT_GE(thr, 1u) << "p=" << pd;
    ASSERT_LE(thr, kOne) << "p=" << pd;
    // thr - 1 is the largest draw below p; thr is the smallest at or above.
    EXPECT_LT(scaled(thr - 1), pd) << "p=" << pd;
    EXPECT_TRUE(scaled(thr) >= pd || thr == kOne) << "p=" << pd;
    // spike_fires agrees with uniform() < p on both sides of the boundary,
    // whatever the 11 discarded low bits hold.
    for (const std::uint64_t x : {std::uint64_t{0}, thr - 1, thr, kOne - 1}) {
      if (x >= kOne) continue;
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7FF}}) {
        const std::uint64_t u = (x << 11) | low;
        EXPECT_EQ(spike_fires(u, thr), scaled(x) < pd)
            << "p=" << pd << " x=" << x;
      }
    }
  }
  EXPECT_EQ(spike_threshold(0.0f), 0u);  // never fires
  EXPECT_EQ(spike_threshold(1.0f), kOne);
  EXPECT_TRUE(spike_fires(~std::uint64_t{0}, kOne));  // always fires
}

// ------------------------------------------------------------ stream pin
// The digest below was recorded from the float-compare encoder
// (`rng.uniform() < p` per active pixel, push_back on a hit). Any change to
// which pixels spike, to the draw count or to the draw order moves it.

/// FNV-1a 64 over the little-endian bytes of `v`, folded into `h`.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

/// Folds every step's spike list, then the Rng's next draw after the last
/// step (which pins the number of draws the encoder made).
void fold_stream(std::uint64_t& h, const std::vector<float>& image,
                 float max_rate, std::uint64_t seed) {
  PoissonEncoder enc(max_rate);
  enc.set_image(image);
  Rng rng(seed);
  std::vector<std::uint32_t> spikes;
  for (std::size_t t = 0; t < 64; ++t) {
    enc.step(rng, spikes);
    fnv_fold(h, spikes.size());
    for (const auto i : spikes) fnv_fold(h, i);
  }
  fnv_fold(h, rng.next_u64());
}

/// Intensities whose p * 2^53 is an integer (1, 0.5, 0.25), the smallest
/// positive subnormal (its product with max_rate < 1 underflows to 0, yet
/// the pixel is active and draws), zeros, and random floats.
std::vector<float> crafted_image() {
  std::vector<float> image{1.0f, 0.5f, 0.0f, 0.25f,
                           std::numeric_limits<float>::denorm_min(), 0.0f};
  Rng rng(2024);
  for (int i = 0; i < 58; ++i)
    image.push_back(static_cast<float>(rng.uniform()));
  return image;
}

std::uint64_t encoder_stream_digest() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<std::vector<float>> images{crafted_image()};
  for (const auto task : {data::Task::kDigits, data::Task::kFashion}) {
    const auto ds = data::make_dataset(task, 3, 11);
    images.insert(images.end(), ds.images.begin(), ds.images.end());
  }
  for (const auto& image : images)
    for (const float max_rate : {0.02f, 0.3f, 1.0f})
      for (const std::uint64_t seed : {1u, 77u})
        fold_stream(h, image, max_rate, seed);
  return h;
}

TEST(PoissonEncoderStream, DigestIsPinned) {
  EXPECT_EQ(encoder_stream_digest(), 0x3F848EBB78A88AD3ULL);
}

}  // namespace
}  // namespace sparkxd::snn
