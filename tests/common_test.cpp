// Tests for the common foundation: RNG determinism and distribution
// statistics, bit utilities, percentile/clamp, table emission, env knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sparkxd {
namespace {

/// Sample mean and (n-1) variance of a stream of draws.
struct Moments {
  double n = 0.0, sum = 0.0, sum2 = 0.0;
  void add(double x) {
    n += 1.0;
    sum += x;
    sum2 += x * x;
  }
  [[nodiscard]] double mean() const { return sum / n; }
  [[nodiscard]] double variance() const {
    return (sum2 - sum * sum / n) / (n - 1.0);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
};

// ---------------------------------------------------------------- Rng basics

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsDeterministicAndDoesNotAdvanceParent) {
  Rng parent(7);
  const auto before = Rng(7).next_u64();
  Rng f1 = parent.fork(42);
  Rng f2 = parent.fork(42);
  EXPECT_EQ(f1.next_u64(), f2.next_u64());
  EXPECT_EQ(parent.next_u64(), before);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(7);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += f1.next_u64() == f2.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(13);
  Moments s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  Moments s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMeanOneParameterization) {
  // lognormal(-sigma^2/2, sigma) has mean 1 — the subarray-profile
  // normalization relies on this.
  Rng rng(31);
  const double sigma = 0.8;
  Moments s;
  for (int i = 0; i < 200000; ++i)
    s.add(rng.lognormal(-0.5 * sigma * sigma, sigma));
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashCombine, AdjacentIdsDecorrelate) {
  // Consecutive cell addresses must not produce correlated scores.
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.insert(hash_combine(42, i));
  EXPECT_EQ(out.size(), 1000u);
}

// ----------------------------------------------------------------- bit utils

TEST(Bits, FloatRoundTrip) {
  for (const float f : {0.0f, 1.0f, -2.5f, 3.14159f, 1e-30f}) {
    EXPECT_EQ(bits_to_float(float_to_bits(f)), f);
  }
}

TEST(Bits, FlipBitIsInvolution) {
  const std::uint32_t w = 0xDEADBEEF;
  for (unsigned b = 0; b < 32; ++b) EXPECT_EQ(flip_bit(flip_bit(w, b), b), w);
}

TEST(Bits, FlipFloatSignBit) {
  EXPECT_FLOAT_EQ(flip_float_bit(1.5f, 31), -1.5f);
}

TEST(Bits, FlipFloatExponentMsbIsLarge) {
  // The paper's label-2 observation: MSB-side flips change weights a lot.
  const float w = 0.1f;
  const float corrupted = flip_float_bit(w, 30);
  EXPECT_GT(std::abs(corrupted), 1e6f);
}

TEST(Bits, FlipFloatMantissaLsbIsSmall) {
  const float w = 0.1f;
  const float corrupted = flip_float_bit(w, 0);
  EXPECT_NEAR(corrupted, w, 1e-6f);
  EXPECT_NE(corrupted, w);
}

TEST(Bits, FlipRejectsOutOfRangeBit) {
  EXPECT_THROW((void)flip_float_bit(1.0f, 32), ContractViolation);
}

// --------------------------------------------------------------------- stats

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Stats, PercentileRejectsEmpty) {
  EXPECT_THROW((void)percentile({}, 50), ContractViolation);
}

TEST(Stats, Clamp) {
  EXPECT_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

// --------------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows) {
  Table t("demo", {"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(39.46), "39.46%");
  EXPECT_EQ(Table::sci(1e-5, 1), "1.0e-05");
}

// ----------------------------------------------------------------------- env

TEST(Env, DoubleFallback) {
  ::unsetenv("SPARKXD_TEST_VAR");
  EXPECT_EQ(env_double("SPARKXD_TEST_VAR", 2.5), 2.5);
  ::setenv("SPARKXD_TEST_VAR", "7.5", 1);
  EXPECT_EQ(env_double("SPARKXD_TEST_VAR", 2.5), 7.5);
  ::setenv("SPARKXD_TEST_VAR", "garbage", 1);
  EXPECT_EQ(env_double("SPARKXD_TEST_VAR", 2.5), 2.5);
  ::unsetenv("SPARKXD_TEST_VAR");
}

TEST(Env, ScaledAppliesFloor) {
  ::setenv("SPARKXD_SCALE", "0.05", 1);
  EXPECT_EQ(scaled(100, 10), 10u);
  ::setenv("SPARKXD_SCALE", "2", 1);
  EXPECT_EQ(scaled(100, 10), 200u);
  ::unsetenv("SPARKXD_SCALE");
  EXPECT_EQ(scaled(100, 10), 100u);
}

TEST(Env, NonFiniteScaleFallsBackToDefault) {
  // strtod parses "nan" and "inf"; a NaN scale would reach the size_t cast
  // in scaled() (undefined behaviour), so both count as unparsable.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    ::setenv("SPARKXD_SCALE", bad, 1);
    EXPECT_EQ(workload_scale(), 1.0) << bad;
    EXPECT_EQ(scaled(100, 10), 100u) << bad;
  }
  ::unsetenv("SPARKXD_SCALE");
}

// ---------------------------------------------------------------- JSON core
// The scenario reports diff serialized bytes across thread counts and
// against checked-in goldens, so json::number must be byte-stable over the
// whole finite double range and must refuse the two values that have no
// JSON spelling at all.

TEST(Json, RejectsNonFiniteDoublesWithClearError) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      (void)json::number(bad);
      FAIL() << "json::number accepted " << bad;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos);
    }
  }
  // The Writer's double path inherits the rejection.
  json::Writer w;
  w.begin_object().key("x");
  EXPECT_THROW(w.value(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
}

TEST(Json, ExtremeMagnitudesRoundTripByteStably) {
  // Shortest-round-trip to_chars output: parsing the text and re-rendering
  // must reproduce the exact bytes, even at the edges of the double range.
  for (const double v :
       {1e-300, 1e300, -1e-300, -1e300, 5e-324 /* min subnormal */,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(), 0.1, 1.0 / 3.0}) {
    const std::string text = json::number(v);
    const double reparsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(reparsed, v) << text;
    EXPECT_EQ(json::number(reparsed), text) << "unstable rendering of " << v;
  }
  EXPECT_EQ(json::number(1e-300), "1e-300");
  EXPECT_EQ(json::number(1e300), "1e+300");
}

TEST(Json, EscapesControlCharacters) {
  // Every byte below 0x20 must come out escaped; the C-style shorthands for
  // the common ones, \u00xx for the rest.
  EXPECT_EQ(json::escape(std::string_view("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(json::escape("a\b\f\n\r"), "a\\b\\f\\n\\r");
  EXPECT_EQ(json::escape("quote\" back\\slash"), "quote\\\" back\\\\slash");
  // 0x7f and non-ASCII bytes pass through untouched (JSON strings are UTF-8).
  EXPECT_EQ(json::escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
  // Escaped control characters survive a full Writer round through a key
  // and a value without breaking nesting.
  json::Writer w(/*pretty=*/false);
  w.begin_object().field(std::string_view("k\n", 2),
                         std::string_view("v\x01", 2));
  w.end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_EQ(w.str(), "{\"k\\n\":\"v\\u0001\"}");
}

// ----------------------------------------------------------------- contracts

TEST(Contracts, ViolationCarriesContext) {
  try {
    SPARKXD_REQUIRE(false, "specific context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("specific context"), std::string::npos);
    EXPECT_NE(what.find("precondition"), std::string::npos);
  }
}

}  // namespace
}  // namespace sparkxd
