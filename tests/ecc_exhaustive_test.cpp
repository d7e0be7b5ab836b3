// Exhaustive multi-bit fault-injection sweep over every registered ECC
// scheme: inject ALL 1-bit and ALL 2-bit error patterns per codeword (plus a
// seeded 3-bit sample) and assert each scheme's (t, d) contract *exactly* —
// a t-corrector restores every <= t-bit pattern bit for bit, a d-detector
// never reports a t < weight <= d pattern as clean or "corrected" into the
// wrong codeword, and the classification counts are invariant under the
// worker thread count (the sweep itself runs over parallel_for).
//
// The small-codeword schemes (<= ~160 total bits) are swept exhaustively;
// the 512 B / 4 KB BCH large-codeword modes get a seeded random sample of
// singles, doubles, and triples (their C(n,2) pattern spaces are in the
// millions).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "error/ecc_scheme.hpp"
#include "ecc_test_util.hpp"
#include "test_env_util.hpp"

namespace sparkxd::error {
namespace {

using testutil::registered_ecc_specs;
using testutil::ThreadsOverride;

/// Classification counts of one sweep, split by injected error weight.
struct Counts {
  std::uint64_t corrected = 0;     ///< kCorrected and codeword restored
  std::uint64_t detected = 0;      ///< kDetected
  std::uint64_t missed = 0;        ///< kClean despite corrupted data bits
  std::uint64_t miscorrected = 0;  ///< kCorrected but codeword is wrong
  std::uint64_t total = 0;

  friend bool operator==(const Counts&, const Counts&) = default;

  Counts& operator+=(const Counts& o) {
    corrected += o.corrected;
    detected += o.detected;
    missed += o.missed;
    miscorrected += o.miscorrected;
    total += o.total;
    return *this;
  }
};

/// One clean codeword (data + freshly encoded check words).
struct Codeword {
  std::vector<std::uint64_t> data;
  std::vector<std::uint64_t> check;
};

Codeword make_codeword(const EccScheme& s, Rng& rng) {
  Codeword cw;
  cw.data.resize(s.data_words());
  cw.check.resize(s.check_words());
  for (auto& w : cw.data) w = rng.next_u64();
  // Clear bits past data_bits so the pattern space stays within the code.
  if (s.data_bits() % 64 != 0)
    cw.data.back() &= (std::uint64_t{1} << (s.data_bits() % 64)) - 1;
  s.encode(cw.data.data(), cw.check.data());
  return cw;
}

/// Flips codeword bit `pos`: [0, data_bits) hits data, the rest check bits.
void flip(const EccScheme& s, Codeword& cw, std::size_t pos) {
  if (pos < s.data_bits())
    cw.data[pos / 64] ^= std::uint64_t{1} << (pos % 64);
  else {
    const std::size_t c = pos - s.data_bits();
    cw.check[c / 64] ^= std::uint64_t{1} << (c % 64);
  }
}

/// Injects `pattern`, decodes, and classifies the outcome against the clean
/// codeword.
Counts classify(const EccScheme& s, const Codeword& clean,
                const std::vector<std::size_t>& pattern) {
  Codeword cw = clean;
  bool data_hit = false;
  for (const std::size_t pos : pattern) {
    flip(s, cw, pos);
    data_hit = data_hit || pos < s.data_bits();
  }
  const EccDecode r = s.decode(cw.data.data(), cw.check.data());
  const bool restored = cw.data == clean.data && cw.check == clean.check;
  Counts c;
  c.total = 1;
  switch (r.status) {
    case EccStatus::kClean:
      // Clean with corrupted data bits is the fatal silent miss; clean with
      // only check-bit corruption would merely strand a stale check word,
      // and no registered scheme does even that.
      if (data_hit || cw.data != clean.data) ++c.missed;
      break;
    case EccStatus::kDetected:
      ++c.detected;
      break;
    case EccStatus::kCorrected:
      if (restored)
        ++c.corrected;
      else
        ++c.miscorrected;
      break;
  }
  return c;
}

/// Sweep result: counts by injected weight (1, 2, and sampled 3).
struct Sweep {
  Counts w1, w2, w3;
  friend bool operator==(const Sweep&, const Sweep&) = default;
};

/// All 1-bit and ALL 2-bit patterns, parallel over the first flip position,
/// plus `triples` seeded 3-bit samples. Deterministic regardless of the
/// worker count: per-position partial counts reduce in index order.
Sweep exhaustive_sweep(const EccScheme& s, const Codeword& clean,
                       std::size_t triples, std::uint64_t seed) {
  const std::size_t n = s.data_bits() + s.check_bits();
  std::vector<Sweep> partial(n);
  parallel_for(n, [&](std::size_t i) {
    partial[i].w1 += classify(s, clean, {i});
    for (std::size_t j = i + 1; j < n; ++j)
      partial[i].w2 += classify(s, clean, {i, j});
  });
  Sweep sum;
  for (const auto& p : partial) {
    sum.w1 += p.w1;
    sum.w2 += p.w2;
  }
  // Seeded 3-bit sample: beyond every scheme's t but within (or beyond) d —
  // the sweep asserts per-kind what is still guaranteed about it.
  std::vector<std::vector<std::size_t>> tri(triples);
  Rng rng(seed);
  for (auto& t : tri) {
    std::size_t a = rng.next_u64() % n, b = a, c = a;
    while (b == a) b = rng.next_u64() % n;
    while (c == a || c == b) c = rng.next_u64() % n;
    t = {a, b, c};
  }
  std::vector<Counts> tri_counts(triples);
  parallel_for(triples,
               [&](std::size_t i) { tri_counts[i] = classify(s, clean, tri[i]); });
  for (const auto& c : tri_counts) sum.w3 += c;
  return sum;
}

std::uint64_t choose2(std::uint64_t n) { return n * (n - 1) / 2; }

/// Per-kind contract over one sweep of one codeword.
void check_contract(const EccScheme& s, const Sweep& r, std::size_t triples) {
  const std::uint64_t n = s.data_bits() + s.check_bits();
  // Coverage is exact and total: every 1- and 2-bit pattern classified.
  ASSERT_EQ(r.w1.total, n) << s.name();
  ASSERT_EQ(r.w1.corrected + r.w1.detected + r.w1.missed + r.w1.miscorrected,
            n)
      << s.name();
  ASSERT_EQ(r.w2.total, choose2(n)) << s.name();
  ASSERT_EQ(r.w3.total, triples) << s.name();

  const unsigned t = s.correctable_bits();
  const unsigned d = testutil::detectable_bits(s.kind());
  // Weight 1: corrected iff t >= 1, else detected iff d >= 1, else missed.
  if (t >= 1) {
    EXPECT_EQ(r.w1.corrected, n) << s.name();
  } else if (d >= 1) {
    EXPECT_EQ(r.w1.detected, n) << s.name();
    EXPECT_EQ(r.w1.missed, 0u) << s.name();
  } else {
    EXPECT_EQ(r.w1.missed, n) << s.name();
  }
  // Weight 2: corrected iff t >= 2; flagged (never missed or miscorrected)
  // iff d >= 2; None misses all, Parity misses exactly the even patterns.
  if (t >= 2) {
    EXPECT_EQ(r.w2.corrected, choose2(n)) << s.name();
  } else if (d >= 2) {
    EXPECT_EQ(r.w2.detected, choose2(n)) << s.name();
    EXPECT_EQ(r.w2.missed, 0u) << s.name();
    EXPECT_EQ(r.w2.miscorrected, 0u) << s.name();
  } else {
    EXPECT_EQ(r.w2.missed, choose2(n)) << s.name();
  }
  // Weight 3: BCH (d = 3) detects all of them; the SECDED family may
  // miscorrect beyond its guarantee but its overall parity bit means a
  // 3-bit pattern can never decode as clean; parity detects odd weights.
  switch (s.kind()) {
    case EccKind::kBch:
      EXPECT_EQ(r.w3.detected, triples) << s.name();
      break;
    case EccKind::kSecded:
    case EccKind::kHsiao:
    case EccKind::kParity:
      EXPECT_EQ(r.w3.missed, 0u) << s.name();
      break;
    case EccKind::kNone:
      EXPECT_EQ(r.w3.missed, triples) << s.name();
      break;
  }
}

/// Registered schemes small enough for the full C(n,2) sweep.
std::vector<EccSpec> exhaustive_specs() {
  std::vector<EccSpec> out;
  for (const auto& spec : registered_ecc_specs())
    if (spec.data_bits + make_ecc_scheme(spec)->check_bits() <= 160)
      out.push_back(spec);
  return out;
}

constexpr std::size_t kTriples = 200;

TEST(EccExhaustive, EverySchemeMeetsItsContractOnEveryPattern) {
  Rng rng(20260808);
  for (const auto& spec : exhaustive_specs()) {
    const auto scheme = make_ecc_scheme(spec);
    // Degenerate and random payloads: the contract must hold regardless of
    // the stored data.
    std::vector<Codeword> bases;
    Codeword zero;
    zero.data.assign(scheme->data_words(), 0);
    zero.check.assign(scheme->check_words(), 0);
    scheme->encode(zero.data.data(), zero.check.data());
    bases.push_back(zero);
    Codeword ones;
    ones.data.assign(scheme->data_words(), ~std::uint64_t{0});
    if (scheme->data_bits() % 64 != 0)
      ones.data.back() &= (std::uint64_t{1} << (scheme->data_bits() % 64)) - 1;
    ones.check.assign(scheme->check_words(), 0);
    scheme->encode(ones.data.data(), ones.check.data());
    bases.push_back(ones);
    bases.push_back(make_codeword(*scheme, rng));
    bases.push_back(make_codeword(*scheme, rng));

    for (std::size_t b = 0; b < bases.size(); ++b) {
      SCOPED_TRACE(scheme->name() + " base " + std::to_string(b));
      const Sweep r =
          exhaustive_sweep(*scheme, bases[b], kTriples, 77 + 13 * b);
      check_contract(*scheme, r, kTriples);
    }
  }
}

TEST(EccExhaustive, CountsAreInvariantUnderTheWorkerThreadCount) {
  Rng rng(424242);
  for (const auto& spec : exhaustive_specs()) {
    const auto scheme = make_ecc_scheme(spec);
    const Codeword base = make_codeword(*scheme, rng);
    Sweep one_thread, eight_threads;
    {
      ThreadsOverride threads("1");
      one_thread = exhaustive_sweep(*scheme, base, kTriples, 99);
    }
    {
      ThreadsOverride threads("8");
      eight_threads = exhaustive_sweep(*scheme, base, kTriples, 99);
    }
    EXPECT_EQ(one_thread, eight_threads) << scheme->name();
    check_contract(*scheme, one_thread, kTriples);
  }
}

TEST(EccExhaustive, LargeCodewordBchSampledPatternsHoldTheContract) {
  // The 512 B and 4 KB modes: sampled singles and doubles must correct,
  // sampled triples must be detected — same contract, sampled pattern space.
  Rng rng(31337);
  for (const auto& spec : registered_ecc_specs()) {
    if (spec.kind != EccKind::kBch || spec.data_bits <= 160) continue;
    const auto scheme = make_ecc_scheme(spec);
    const Codeword clean = make_codeword(*scheme, rng);
    const std::size_t n = scheme->data_bits() + scheme->check_bits();
    Counts singles, doubles, triples;
    for (int s = 0; s < 24; ++s) {
      const std::size_t a = rng.next_u64() % n;
      std::size_t b = a, c = a;
      while (b == a) b = rng.next_u64() % n;
      while (c == a || c == b) c = rng.next_u64() % n;
      singles += classify(*scheme, clean, {a});
      doubles += classify(*scheme, clean, {a, b});
      triples += classify(*scheme, clean, {a, b, c});
    }
    EXPECT_EQ(singles.corrected, 24u) << scheme->name();
    EXPECT_EQ(doubles.corrected, 24u) << scheme->name();
    EXPECT_EQ(triples.detected, 24u) << scheme->name();
  }
}

}  // namespace
}  // namespace sparkxd::error
