// Tests for the approximate-DRAM error substrate: subarray profiles, the
// four EDEN error models, weak-cell determinism/nesting, and injection
// statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "error/injector.hpp"
#include "inject_test_util.hpp"
#include "mapping/mapping.hpp"
#include "test_env_util.hpp"

namespace sparkxd::error {
namespace {

dram::Geometry geom() { return dram::Geometry::lpddr3_4gb(); }

/// A placement + weight buffer big enough for meaningful statistics.
struct InjectorFixture {
  dram::Geometry g = geom();
  SubarrayProfile profile{g, 42};
  std::size_t n_weights = 200000;
  ChunkPlacement placement =
      mapping::baseline_placement_layers(g, {n_weights})[0];
  std::vector<float> weights = std::vector<float>(n_weights, 0.1f);
};

// ------------------------------------------------------------------- profile

TEST(SubarrayProfile, DeterministicPerSeed) {
  const SubarrayProfile a(geom(), 7), b(geom(), 7), c(geom(), 8);
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.weakness(i), b.weakness(i));
  }
  bool differs = false;
  for (std::uint64_t i = 0; i < a.size() && !differs; ++i)
    differs = a.weakness(i) != c.weakness(i);
  EXPECT_TRUE(differs);
}

TEST(SubarrayProfile, WeaknessMeanNearOne) {
  // Use a bigger module for tighter statistics.
  auto g = geom();
  g.subarrays_per_bank = 512;
  const SubarrayProfile p(g, 3);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < p.size(); ++i) sum += p.weakness(i);
  EXPECT_NEAR(sum / static_cast<double>(p.size()), 1.0, 0.1);
}

TEST(SubarrayProfile, RateScalesWithModuleBer) {
  const SubarrayProfile p(geom(), 7);
  EXPECT_DOUBLE_EQ(p.rate(0, 0.0), 0.0);
  EXPECT_NEAR(p.rate(0, 1e-4) / p.rate(0, 1e-6), 100.0, 1e-6);
}

TEST(SubarrayProfile, RateClampedAtHalf) {
  const SubarrayProfile p(geom(), 7, 2.0);  // wide spread
  for (std::uint64_t i = 0; i < p.size(); ++i)
    EXPECT_LE(p.rate(i, 0.4), 0.5);
}

TEST(SubarrayProfile, CountSafeMonotoneInThreshold) {
  const SubarrayProfile p(geom(), 7);
  const double ber = 1e-3;
  std::size_t prev = 0;
  for (const double th : {1e-5, 1e-4, 1e-3, 1e-2, 1.0}) {
    const auto n = p.count_safe(ber, th);
    EXPECT_GE(n, prev);
    prev = n;
  }
  EXPECT_EQ(p.count_safe(ber, 1.0), p.size());
}

TEST(SubarrayProfile, HalfSafeAtThresholdEqualBer) {
  // weakness is lognormal with median < mean=1: more than half the
  // subarrays have rate <= module BER.
  const SubarrayProfile p(geom(), 7);
  const auto safe = p.count_safe(1e-3, 1e-3);
  EXPECT_GT(safe, p.size() / 2);
  EXPECT_LT(safe, p.size());
}

TEST(SubarrayProfile, ZeroSigmaIsUniform) {
  const SubarrayProfile p(geom(), 7, 0.0);
  for (std::uint64_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(p.weakness(i), 1.0, 1e-9);
}

TEST(SubarrayProfile, RejectsOutOfRange) {
  const SubarrayProfile p(geom(), 7);
  EXPECT_THROW((void)p.weakness(p.size()), ContractViolation);
  EXPECT_THROW((void)p.rate(0, 2.0), ContractViolation);
}

// ------------------------------------------------------------------ injector

TEST(Injector, ExpectedFlipRateMatchesBer) {
  InjectorFixture f;
  const double ber = 1e-3;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          ber);
  // The placement covers a couple of subarrays; the expected rate is
  // ber * (their average weakness), so compare against that.
  const auto bits = static_cast<double>(f.n_weights) * 32.0;
  const double expected = inj.expected_flips(ber);
  Rng rng(1);
  double total = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    auto w = f.weights;
    total += static_cast<double>(inj.freeze(ber).inject(w, rng));
  }
  const double measured = total / trials;
  EXPECT_NEAR(measured / expected, 1.0, 0.1);
  // And the absolute rate is the right order of magnitude.
  EXPECT_GT(measured / bits, ber * 0.1);
  EXPECT_LT(measured / bits, ber * 10.0);
}

TEST(Injector, WeakSetsAreNestedAcrossBer) {
  // Cells failing at a low BER must also fail at a higher BER (voltage
  // reduction only adds failures). inject_all_weak flips every weak cell,
  // so the flip count must be monotone in BER.
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  std::size_t prev = 0;
  for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3}) {
    auto w = f.weights;
    const auto flips = testutil::inject_all_weak(inj, w, ber);
    EXPECT_GE(flips, prev);
    prev = flips;
  }
  EXPECT_GT(prev, 0u);
}

TEST(Injector, FlippedCellsAtLowerBerAreSubsetOfHigherBer) {
  // Prefix stability of the sorted candidate list: the exact cells flipped
  // at BER b1 < b2 must be a subset of those flipped at b2, not merely
  // fewer. Zeroed weights + a clamp range wider than any single-flip value
  // (max 2^127) make the resulting bit pattern the exact weak-cell mask.
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  const SanitizeRange wide{-3.4e38f, 3.4e38f};
  const auto mask_at = [&](double ber) {
    std::vector<float> w(f.n_weights, 0.0f);
    testutil::inject_all_weak(inj, w, ber, wide);
    std::vector<std::uint32_t> bits(f.n_weights);
    for (std::size_t i = 0; i < f.n_weights; ++i)
      bits[i] = float_to_bits(w[i]);
    return bits;
  };
  const auto low = mask_at(1e-5);
  const auto high = mask_at(1e-3);
  std::size_t low_bits = 0, high_bits = 0;
  for (std::size_t i = 0; i < f.n_weights; ++i) {
    EXPECT_EQ(low[i] & high[i], low[i]) << "weight " << i;
    low_bits += static_cast<std::size_t>(std::popcount(low[i]));
    high_bits += static_cast<std::size_t>(std::popcount(high[i]));
  }
  EXPECT_GT(low_bits, 0u);
  EXPECT_GT(high_bits, low_bits);
}

TEST(Injector, SameSeedSameWeakCells) {
  InjectorFixture f;
  const auto a = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  const auto b = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  auto wa = f.weights, wb = f.weights;
  (void)testutil::inject_all_weak(a, wa, 1e-3);
  (void)testutil::inject_all_weak(b, wb, 1e-3);
  EXPECT_EQ(wa, wb);
}

TEST(Injector, DifferentSeedDifferentWeakCells) {
  InjectorFixture f;
  const auto a = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                        1e-3);
  const auto b = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 43,
                        1e-3);
  auto wa = f.weights, wb = f.weights;
  (void)testutil::inject_all_weak(a, wa, 1e-3);
  (void)testutil::inject_all_weak(b, wb, 1e-3);
  EXPECT_NE(wa, wb);
}

TEST(Injector, ZeroBerNeverFlips) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(1);
  auto w = f.weights;
  EXPECT_EQ(inj.freeze(0.0).inject(w, rng), 0u);
  EXPECT_EQ(w, f.weights);
}

TEST(Injector, SanitizeClampsCorruptedValues) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(1);
  auto w = f.weights;
  (void)inj.freeze(1e-3).inject(w, rng, {0.0f, 0.4f});
  for (const float v : w) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 0.4f);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(Injector, RejectsBerAboveMax) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-5);
  EXPECT_THROW((void)inj.freeze(1e-3), ContractViolation);
}

TEST(Injector, RejectsUndersizedPlacement) {
  InjectorFixture f;
  ChunkPlacement tiny(f.placement.begin(), f.placement.begin() + 2);
  EXPECT_THROW(ErrorInjector::for_weights(f.g, f.profile, {}, tiny,
                                          f.n_weights, 42, 1e-3),
               ContractViolation);
}

TEST(Injector, RejectsPayloadsPastTheUint32ByteIndex) {
  // Candidate byte indices and frozen word indices are 32-bit: a payload
  // over 4 GiB must be refused up front rather than wrap. The check runs
  // before the coverage check, so a one-chunk placement suffices.
  InjectorFixture f;
  const ChunkPlacement one(f.placement.begin(), f.placement.begin() + 1);
  const std::size_t four_gib = std::size_t{1} << 32;
  try {
    (void)ErrorInjector(f.g, f.profile, {}, one, four_gib + 1, 42, 1e-3);
    ADD_FAILURE() << "a payload over 4 GiB was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("4 GiB"), std::string::npos)
        << e.what();
  }
  // Exactly 4 GiB still indexes in 32 bits; it fails only on coverage.
  try {
    (void)ErrorInjector(f.g, f.profile, {}, one, four_gib, 42, 1e-3);
    ADD_FAILURE() << "a one-chunk placement covered 4 GiB";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("cover"), std::string::npos)
        << e.what();
  }
}

TEST(Injector, FlipProbabilityIsHalfForWeakCells) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement, f.n_weights, 42,
                          1e-3);
  auto w_all = f.weights;
  const auto all = testutil::inject_all_weak(inj, w_all, 1e-3);
  Rng rng(2);
  double sum = 0.0;
  for (int t = 0; t < 10; ++t) {
    auto w = f.weights;
    sum += static_cast<double>(inj.freeze(1e-3).inject(w, rng));
  }
  EXPECT_NEAR(sum / 10.0 / static_cast<double>(all), kWeakCellFailProb, 0.05);
}

// ------------------------------------------------------------ error models

class ModelKinds : public ::testing::TestWithParam<ErrorModelKind> {};

TEST_P(ModelKinds, AllModelsProduceExpectedOrderOfFlips) {
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.kind = GetParam();
  const double ber = 1e-3;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights, 42,
                          ber);
  Rng rng(3);
  auto w = f.weights;
  const auto flips = inj.freeze(ber).inject(w, rng);
  const auto bits = static_cast<double>(f.n_weights) * 32.0;
  EXPECT_GT(flips, bits * ber * 0.05);
  EXPECT_LT(flips, bits * ber * 20.0);
}

TEST_P(ModelKinds, ToStringIsStable) {
  EXPECT_NE(std::string(to_string(GetParam())).find("Model"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelKinds,
    ::testing::Values(ErrorModelKind::kModel0Uniform,
                      ErrorModelKind::kModel1Bitline,
                      ErrorModelKind::kModel2Wordline,
                      ErrorModelKind::kModel3DataDependent),
    [](const auto& info) {
      switch (info.param) {
        case ErrorModelKind::kModel0Uniform: return "Model0";
        case ErrorModelKind::kModel1Bitline: return "Model1";
        case ErrorModelKind::kModel2Wordline: return "Model2";
        case ErrorModelKind::kModel3DataDependent: return "Model3";
      }
      return "unknown";
    });

TEST(ErrorModels, Model1ConcentratesOnBitlines) {
  // Under Model-1, weak cells cluster on a subset of bitlines; under
  // Model-0 they spread across all of them. With the baseline placement a
  // weight's bitline within its row is (weight_index mod 512, bit). The
  // statistic is the share of flip pairs that land on the same bitline,
  // sum_b c_b (c_b - 1) / (n (n - 1)): 1/B for a uniform spread over B
  // bitlines, and e^(sigma^2) = 2.7 times that for per-bitline lognormal
  // multipliers of unit mean (sigma = 1). About 11k flips make it exact to
  // a few percent; the two models measure 1.40/B and 2.18/B here.
  InjectorFixture f;
  const std::size_t bitlines = 512 * 32;
  const auto pair_share = [&](ErrorModelKind kind) {
    ErrorModelSpec spec;
    spec.kind = kind;
    const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights,
                            42, 1e-3);
    auto w = f.weights;
    (void)testutil::inject_all_weak(inj, w, 1e-3);
    std::vector<double> hits(bitlines, 0.0);
    const std::uint32_t clean = float_to_bits(0.1f);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::uint32_t diff = float_to_bits(w[i]) ^ clean;
      for (unsigned b = 0; b < 32; ++b)
        if ((diff >> b) & 1u) hits[(i % 512) * 32 + b] += 1.0;
    }
    double n = 0.0, pairs = 0.0;
    for (const double c : hits) {
      n += c;
      pairs += c * (c - 1.0);
    }
    EXPECT_GT(n, 1000.0);
    return pairs / (n * (n - 1.0));
  };
  const double m0 = pair_share(ErrorModelKind::kModel0Uniform);
  const double m1 = pair_share(ErrorModelKind::kModel1Bitline);
  EXPECT_GT(m1, 1.3 * m0) << "Model-1 flips should cluster on fewer "
                             "bitlines than Model-0";
}

TEST(ErrorModels, Model3PrefersSetBits) {
  // Weak cells holding 1 flip with p1 = 0.75, those holding 0 with
  // p0 = 0.25. Use an all-bits-set weight vs an all-bits-clear one.
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.kind = ErrorModelKind::kModel3DataDependent;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec, f.placement, f.n_weights, 42,
                          1e-3);
  Rng rng(5);
  std::vector<float> ones(f.n_weights, bits_to_float(0xFFFFFFFFu));
  std::vector<float> zeros(f.n_weights, bits_to_float(0x0u));
  // No sanitization (lo=-inf style range wide enough): use a huge range so
  // flips are counted, not clamped away.
  const SanitizeRange wide{-3.4e38f, 3.4e38f};
  const auto flips_ones = inj.freeze(1e-3).inject(ones, rng, wide);
  const auto flips_zeros = inj.freeze(1e-3).inject(zeros, rng, wide);
  // About 6k candidates: the counts are 0.75 n +- 34 and 0.25 n +- 34,
  // so a 2:1 bound (expected 3:1) leaves a margin of over 20 sigma.
  ASSERT_GT(inj.freeze(1e-3).size(), 1000u);
  EXPECT_GT(flips_ones, flips_zeros * 2);
}

// ---------------------------------------- delta injection + frozen tables

TEST(DeltaInjection, RevertRestoresWeightsBitwise) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  Rng rng(11);
  auto w = f.weights;
  std::vector<WeightFlip> log;
  const auto flips = inj.freeze(1e-3).inject(w, rng, {0.0f, 0.4f}, &log);
  ASSERT_GT(flips, 0u);
  EXPECT_EQ(flips, log.size());
  EXPECT_NE(w, f.weights);
  revert_flips(w, log);
  EXPECT_EQ(w, f.weights);  // exact pre-injection bit patterns
}

TEST(FrozenInjection_, TablesAreNestedAcrossBer) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  std::size_t prev = 0;
  for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3}) {
    const auto frozen = inj.freeze(ber);
    EXPECT_EQ(frozen.ber(), ber);
    EXPECT_GE(frozen.size(), prev);
    prev = frozen.size();
  }
  // At the enumerated maximum the table is the whole candidate list.
  EXPECT_EQ(inj.freeze(1e-3).size(), inj.candidate_count());
  EXPECT_THROW((void)inj.freeze(1e-2), ContractViolation);
}

TEST(FrozenInjection_, DeltaRoundTripThroughTheTable) {
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, {}, f.placement,
                                              f.n_weights, 42, 1e-3);
  const auto frozen = inj.freeze(1e-3);
  Rng rng(15);
  auto w = f.weights;
  // Several consecutive inject/revert cycles on ONE buffer (the Monte-Carlo
  // trial pattern) must leave it untouched every time.
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<WeightFlip> log;
    const auto flips = frozen.inject(w, rng, {0.0f, 0.4f}, &log);
    EXPECT_EQ(flips, log.size());
    revert_flips(w, log);
    EXPECT_EQ(w, f.weights) << "trial " << trial;
  }
}

TEST(FrozenInjection_, CarriesRetentionCandidatesAtAnyBer) {
  // Retention-weak cells are below every BER threshold, so a table frozen
  // at BER 0 still injects them.
  InjectorFixture f;
  ErrorModelSpec spec;
  spec.retention.enabled = true;
  spec.retention.interval_multiplier = 32.0;
  const auto inj = ErrorInjector::for_weights(f.g, f.profile, spec,
                                              f.placement, f.n_weights, 42,
                                              0.0);
  const auto frozen = inj.freeze(0.0);
  EXPECT_EQ(frozen.size(), inj.retention_candidate_count());
  EXPECT_GT(frozen.size(), 0u);
  Rng rng(16);
  auto w = f.weights;
  EXPECT_GT(frozen.inject(w, rng), 0u);
  EXPECT_NE(w, f.weights);
}

// ----------------------------------------------------------------- retention

RetentionSpec retention_at(double multiplier) {
  RetentionSpec r;
  r.enabled = true;
  r.interval_multiplier = multiplier;
  return r;
}

ErrorModelSpec spec_with_retention(double multiplier) {
  ErrorModelSpec spec;
  spec.retention = retention_at(multiplier);
  return spec;
}

TEST(Retention, FailProbabilityShape) {
  // Disabled: exactly zero. Nominal cadence on an average subarray:
  // negligible (~1e-8). Each relaxation step raises it monotonically, as
  // does subarray weakness.
  EXPECT_EQ(retention_fail_probability(RetentionSpec{}, 1.0), 0.0);
  const double p1 = retention_fail_probability(retention_at(1.0), 1.0);
  EXPECT_GT(p1, 0.0);
  EXPECT_LT(p1, 1e-6);
  double prev = p1;
  for (const double m : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double p = retention_fail_probability(retention_at(m), 1.0);
    EXPECT_GT(p, prev) << "multiplier " << m;
    prev = p;
  }
  // 32x relaxation lands in the same decades as the voltage axis's BERs.
  const double p32 = retention_fail_probability(retention_at(32.0), 1.0);
  EXPECT_GT(p32, 1e-4);
  EXPECT_LT(p32, 1e-2);
  // Weak subarrays leak faster.
  EXPECT_GT(retention_fail_probability(retention_at(8.0), 4.0),
            retention_fail_probability(retention_at(8.0), 1.0));
  EXPECT_EQ(retention_fail_probability(retention_at(8.0), 0.0), 0.0);
}

TEST(Retention, SpecValidation) {
  EXPECT_NO_THROW(RetentionSpec{}.validate());  // disabled: anything goes
  EXPECT_NO_THROW(retention_at(64.0).validate());
  EXPECT_THROW(retention_at(0.5).validate(), ContractViolation);
  EXPECT_NO_THROW(retention_at(1024.0).validate());
  EXPECT_THROW(retention_at(1025.0).validate(), ContractViolation);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(retention_at(nan).validate(), ContractViolation);
}

TEST(Retention, InjectorEnumeratesRetentionCandidates) {
  InjectorFixture f;
  // Voltage axis quiet (tiny max BER), retention relaxed 32x: candidates
  // are (almost) purely retention failures, deterministic per seed.
  const auto inj = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_GT(inj.retention_candidate_count(), 0u);
  EXPECT_LE(inj.retention_candidate_count(), inj.candidate_count());
  // ~p32 * 6.4M cells. The band is wide: the baseline placement packs the
  // payload into very few subarrays, so the draw of their weakness
  // multipliers moves the count through the nonlinear tail of Phi.
  const double p32 = retention_fail_probability(retention_at(32.0), 1.0);
  const double expected = p32 * static_cast<double>(f.n_weights) * 32;
  EXPECT_GT(static_cast<double>(inj.retention_candidate_count()),
            expected / 50);
  EXPECT_LT(static_cast<double>(inj.retention_candidate_count()),
            expected * 50);
  // Nominal cadence: the same payload carries (essentially) none.
  const auto nominal = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(1.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_LT(nominal.retention_candidate_count(), 5u);
  // Determinism in the seed.
  const auto again = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-12);
  EXPECT_EQ(again.retention_candidate_count(),
            inj.retention_candidate_count());
}

TEST(Retention, WeakSetsAreNestedAcrossMultipliers) {
  // A cell that leaks past an 8x window also leaks past a 32x window: the
  // deterministic per-cell uniform is compared against a larger probability,
  // so the flipped set at 8x is a subset of the one at 32x.
  InjectorFixture f;
  const auto flipped_at = [&](double multiplier) {
    const auto inj = ErrorInjector::for_weights(
        f.g, f.profile, spec_with_retention(multiplier), f.placement,
        f.n_weights, 42, 1e-12);
    auto w = f.weights;
    (void)testutil::inject_all_weak(inj, w, 1e-12);
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < w.size(); ++i)
      if (w[i] != f.weights[i]) idx.push_back(i);
    return idx;
  };
  const auto at8 = flipped_at(8.0);
  const auto at32 = flipped_at(32.0);
  ASSERT_FALSE(at32.empty());
  EXPECT_LT(at8.size(), at32.size());
  for (const auto i : at8)
    EXPECT_TRUE(std::binary_search(at32.begin(), at32.end(), i))
        << "weight " << i << " flipped at 8x but not at 32x";
}

TEST(Retention, ComposesWithVoltageWeakCellsWithoutDuplicates) {
  InjectorFixture f;
  const auto voltage_only = ErrorInjector::for_weights(
      f.g, f.profile, {}, f.placement, f.n_weights, 42, 1e-3);
  const auto composed = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 1e-3);
  // The union grows and the retention share is accounted.
  EXPECT_GT(composed.candidate_count(), voltage_only.candidate_count());
  EXPECT_GT(composed.retention_candidate_count(), 0u);
  // No duplicate candidates: every reported flip changes a distinct bit, so
  // the number of changed bits equals the flip count (duplicates would
  // cancel pairwise and undercount). The full-float range keeps the
  // sanitizer from clamping extra bits away.
  auto w = f.weights;
  const auto flips = testutil::inject_all_weak(
      composed, w, 1e-3,
      {-std::numeric_limits<float>::max(), std::numeric_limits<float>::max()});
  std::size_t changed_bits = 0;
  for (std::size_t i = 0; i < w.size(); ++i)
    changed_bits += static_cast<std::size_t>(
        std::popcount(float_to_bits(w[i]) ^ float_to_bits(f.weights[i])));
  EXPECT_EQ(changed_bits, flips);
}

TEST(Retention, RetentionCellsFlipAtAnyInjectionBer) {
  // Retention failures do not care about the voltage: they flip even when
  // the injection BER is zero (the bank is at nominal voltage but the
  // refresh interval is relaxed).
  InjectorFixture f;
  const auto inj = ErrorInjector::for_weights(
      f.g, f.profile, spec_with_retention(32.0), f.placement, f.n_weights,
      42, 0.0);
  EXPECT_GT(inj.retention_candidate_count(), 0u);
  auto w = f.weights;
  const auto flips = testutil::inject_all_weak(inj, w, 0.0);
  EXPECT_EQ(flips, inj.retention_candidate_count());
}

// -------------------------------------------------------- enumeration pins
// The digests below were recorded from the per-bit enumeration (one cell
// coordinate and one stripe_multiplier per bit). Any change to which
// cells are weak, to their score order or to the retention split moves one.

/// FNV-1a 64 over the little-endian bytes of `v`, folded into `h`.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Folds an injector's candidate counts and its table frozen at `ber`.
void fold_injector(std::uint64_t& h, const ErrorInjector& inj, double ber) {
  fnv_fold(h, inj.candidate_count());
  fnv_fold(h, inj.retention_candidate_count());
  const FrozenInjection frozen = inj.freeze(ber);
  for (const auto& e : frozen.entries())
    fnv_fold(h, (std::uint64_t{e.word} << 8) | e.bit);
}

/// Models 0-3 plus Model-1 with retention failures on top.
std::vector<ErrorModelSpec> pinned_specs() {
  std::vector<ErrorModelSpec> specs;
  for (const auto kind :
       {ErrorModelKind::kModel0Uniform, ErrorModelKind::kModel1Bitline,
        ErrorModelKind::kModel2Wordline,
        ErrorModelKind::kModel3DataDependent}) {
    ErrorModelSpec spec;
    spec.kind = kind;
    specs.push_back(spec);
  }
  ErrorModelSpec m1_retention = spec_with_retention(32.0);
  m1_retention.kind = ErrorModelKind::kModel1Bitline;
  specs.push_back(m1_retention);
  return specs;
}

/// Digest over seeds x {baseline, Algorithm 2} x specs x max BERs.
std::uint64_t enumeration_digest(std::size_t n_weights) {
  const auto g = geom();
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t seed : {1u, 42u}) {
    const SubarrayProfile profile(g, seed);
    const ChunkPlacement layouts[] = {
        mapping::baseline_placement_layers(g, {n_weights})[0],
        mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3},
                                          {n_weights})[0]
            .chunks};
    for (const auto& place : layouts)
      for (const auto& spec : pinned_specs())
        for (const double ber : {1e-6, 1e-5, 1e-4, 1e-3})
          fold_injector(h,
                        ErrorInjector::for_weights(g, profile, spec, place,
                                                   n_weights, seed, ber),
                        ber);
  }
  return h;
}

TEST(InjectorEnumeration, DigestIsPinnedAtOneAndFourThreads) {
  // 1003 weights end in a partly used chunk; 12000 span several rows.
  for (const char* threads : {"1", "4"}) {
    const testutil::ThreadsOverride knob(threads);
    EXPECT_EQ(enumeration_digest(1003), 0x317C117FF9C96D0DULL) << threads << " threads";
    EXPECT_EQ(enumeration_digest(12000), 0x0549E8FACB0D4A2DULL) << threads << " threads";
  }
}

/// Digest of one Model-1 enumeration over a hand-made placement.
std::uint64_t model1_digest(const dram::Geometry& g,
                            const ChunkPlacement& place,
                            std::size_t n_payload_bytes) {
  const SubarrayProfile profile(g, 5);
  ErrorModelSpec spec;
  spec.kind = ErrorModelKind::kModel1Bitline;
  const double ber = 0.05;
  const ErrorInjector inj(g, profile, spec, place, n_payload_bytes, 5, ber);
  EXPECT_GT(inj.candidate_count(), 0u);
  std::uint64_t h = kFnvBasis;
  fold_injector(h, inj, ber);
  return h;
}

dram::Address at(std::uint32_t bank, std::uint32_t row,
                 std::uint32_t column) {
  dram::Address a;
  a.bank = bank;
  a.row = row;
  a.column = column;
  return a;
}

TEST(InjectorEnumeration, ChunksInDifferentRowsShareTheirBitlines) {
  // Rows 0, 1 and 3 of bank 0 put chunks on the same 256 bitlines; row 2
  // uses the next burst, and bank 1 repeats column 0 on its own bitlines.
  const ChunkPlacement place = {at(0, 0, 0), at(0, 1, 0), at(0, 2, 8),
                                at(0, 3, 0), at(1, 0, 0)};
  EXPECT_EQ(model1_digest(geom(), place, 5 * 32), 0x57AE380233B20D69ULL);
}

TEST(InjectorEnumeration, UnalignedStartColumnsArePinned) {
  // Starts off the burst grid, overlapping bitline runs (3 and 5), the
  // last start that fits a row (504), and a partly used final chunk.
  const ChunkPlacement place = {at(0, 0, 3), at(0, 1, 5), at(2, 7, 504),
                                at(0, 2, 3)};
  EXPECT_EQ(model1_digest(geom(), place, 3 * 32 + 13), 0xEB39039094377E80ULL);
}

TEST(InjectorEnumeration, WideColumnGeometryIsPinned) {
  // 8-byte columns and 4-column bursts move the column/bit split of every
  // bitline id and cell coordinate.
  auto g = geom();
  g.column_bytes = 8;
  g.burst_columns = 4;
  g.columns_per_row = 256;
  const std::size_t n_weights = 3000;
  EXPECT_EQ(model1_digest(g,
                          mapping::baseline_placement_layers(g, {n_weights})[0],
                          n_weights * sizeof(float)),
            0x5DDF236FD3AC631DULL);
}

TEST(InjectorEnumeration, ChunkOverrunningItsRowThrows) {
  const auto g = geom();
  const SubarrayProfile profile(g, 5);
  const std::uint32_t last = g.columns_per_row - 1;
  for (const auto kind :
       {ErrorModelKind::kModel0Uniform, ErrorModelKind::kModel1Bitline}) {
    ErrorModelSpec spec;
    spec.kind = kind;
    const auto build = [&](std::size_t n_payload_bytes) {
      return ErrorInjector(g, profile, spec, {at(0, 0, 0), at(0, 1, last)},
                           n_payload_bytes, 5, 1e-3);
    };
    EXPECT_THROW((void)build(2 * 32), ContractViolation);
    // Five bytes of the last chunk reach the column past the row's end.
    EXPECT_THROW((void)build(32 + 5), ContractViolation);
    // Four bytes stay inside column `last`: nothing overruns.
    EXPECT_NO_THROW((void)build(32 + 4));
  }
}

// ------------------------------------------------------------ weak-cell map

/// A payload laid out through a placement, as an injector sees it.
struct Layout {
  ChunkPlacement place;
  std::size_t n_payload_bytes;
};

/// Overlapping layouts: a baseline slice ending in a partly used chunk, a
/// second slice starting inside the first, an Algorithm-2 placement and the
/// unaligned starts of UnalignedStartColumnsArePinned (column 3 overlaps
/// the baseline's first chunk).
std::vector<Layout> overlapping_layouts(const dram::Geometry& g,
                                        const SubarrayProfile& profile) {
  const auto base = mapping::baseline_placement_layers(g, {3000})[0];
  return {
      {base, 1003 * sizeof(float)},
      {ChunkPlacement(base.begin() + 100, base.end()), 2000 * sizeof(float)},
      {mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3}, {1500})[0]
           .chunks,
       1500 * sizeof(float)},
      {{at(0, 0, 3), at(0, 1, 5), at(2, 7, 504), at(0, 2, 3)}, 3 * 32 + 13},
  };
}

TEST(WeakCellMap, InjectorsMatchStandaloneBuilds) {
  const auto g = geom();
  const std::uint64_t seed = 7;
  const SubarrayProfile profile(g, seed);
  const auto layouts = overlapping_layouts(g, profile);
  std::size_t placed_chunks = 0;
  for (const auto& lay : layouts) placed_chunks += lay.place.size();
  const double cutoff = 1e-2;
  for (const bool retention : {false, true}) {
    for (const auto kind :
         {ErrorModelKind::kModel0Uniform, ErrorModelKind::kModel1Bitline,
          ErrorModelKind::kModel2Wordline,
          ErrorModelKind::kModel3DataDependent}) {
      ErrorModelSpec spec = retention ? spec_with_retention(32.0)
                                      : ErrorModelSpec{};
      spec.kind = kind;
      WeakCellMap map(g, profile, spec, seed, cutoff);
      for (const auto& lay : layouts) map.add(lay.place);
      std::size_t retention_cells = 0;
      EXPECT_LT(map.size(), placed_chunks);  // overlaps enumerated once
      for (const auto& lay : layouts) {
        for (const double ber : {0.0, 1e-4, 1e-3, cutoff}) {
          const ErrorInjector alone(g, profile, spec, lay.place,
                                    lay.n_payload_bytes, seed, ber);
          const ErrorInjector shared(map, lay.place, lay.n_payload_bytes,
                                     ber);
          EXPECT_EQ(shared.candidate_count(), alone.candidate_count());
          EXPECT_EQ(shared.retention_candidate_count(),
                    alone.retention_candidate_count());
          EXPECT_EQ(shared.expected_flips(ber), alone.expected_flips(ber));
          EXPECT_EQ(shared.freeze(ber).entries(), alone.freeze(ber).entries());
          retention_cells += alone.retention_candidate_count();
        }
      }
      EXPECT_EQ(retention, retention_cells > 0);
    }
  }
}

TEST(WeakCellMap, AddingAChunkTwiceEnumeratesItOnce) {
  const auto g = geom();
  const SubarrayProfile profile(g, 3);
  WeakCellMap map(g, profile, {}, 3, 1e-2);
  const ChunkPlacement place = {at(0, 0, 0), at(0, 0, 8), at(0, 0, 0)};
  map.add(place);
  EXPECT_EQ(map.size(), 2u);
  const auto span = map.chunks(place)[0];
  const std::vector<WeakCellMap::Candidate> first(span.begin(), span.end());
  map.add(place);
  map.add(ChunkPlacement{at(0, 0, 3)});  // overlaps chunk 0 from elsewhere
  EXPECT_EQ(map.size(), 3u);
  const auto again = map.chunks(place)[2];
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].bit, first[i].bit);
    EXPECT_EQ(again[i].score, first[i].score);
  }
}

TEST(WeakCellMap, RejectsChunksItLacksAndBersAboveItsCutoff) {
  const auto g = geom();
  const SubarrayProfile profile(g, 5);
  WeakCellMap map(g, profile, {}, 5, 1e-3);
  const ChunkPlacement place = {at(0, 0, 0), at(0, 0, 8)};
  map.add(place);
  EXPECT_NO_THROW((void)ErrorInjector(map, place, 64, 1e-3));
  // A chunk the map was never given.
  EXPECT_THROW((void)ErrorInjector(map, {at(0, 0, 0), at(0, 0, 16)}, 64, 1e-3),
               ContractViolation);
  EXPECT_THROW((void)map.chunks(ChunkPlacement{at(1, 0, 0)}),
               ContractViolation);
  // A BER the map did not enumerate up to.
  EXPECT_THROW((void)ErrorInjector(map, place, 64, 2e-3), ContractViolation);
  EXPECT_THROW((void)ErrorInjector(map, place, 64, -1.0), ContractViolation);
  // A cut-off outside the modelled range, and an address off the device.
  EXPECT_THROW((void)WeakCellMap(g, profile, {}, 5, 0.6), ContractViolation);
  EXPECT_THROW(map.add(ChunkPlacement{at(0, 0, g.columns_per_row)}),
               ContractViolation);
}

TEST(WeakCellMap, PayloadOverrunningItsRowThrows) {
  // The map scores the whole burst of a chunk that starts in a row's last
  // column; the injector still rejects a payload that reaches past the row.
  const auto g = geom();
  const SubarrayProfile profile(g, 5);
  const std::uint32_t last = g.columns_per_row - 1;
  const ChunkPlacement place = {at(0, 0, 0), at(0, 1, last)};
  for (const auto kind :
       {ErrorModelKind::kModel0Uniform, ErrorModelKind::kModel1Bitline}) {
    ErrorModelSpec spec;
    spec.kind = kind;
    WeakCellMap map(g, profile, spec, 5, 1e-3);
    EXPECT_NO_THROW(map.add(place));
    EXPECT_THROW((void)ErrorInjector(map, place, 2 * 32, 1e-3),
                 ContractViolation);
    EXPECT_THROW((void)ErrorInjector(map, place, 32 + 5, 1e-3),
                 ContractViolation);
    EXPECT_NO_THROW((void)ErrorInjector(map, place, 32 + 4, 1e-3));
  }
}

}  // namespace
}  // namespace sparkxd::error
