// Pluggable EccScheme registry tests: the Secded scheme's encode and decode
// are pinned by digests over a seeded corpus, every registered scheme must
// round-trip clean codewords and restore any corruption within its
// t-guarantee (property/fuzz style, seeded), the check-bit auto-sizing must
// match the declared overhead per codeword size, and the Monte-Carlo scrub
// must stay revertible bit for bit through revert_flips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "ecc_test_util.hpp"
#include "error/ecc_scheme.hpp"

namespace sparkxd::error {
namespace {

using testutil::registered_ecc_specs;

/// FNV-1a 64 over the little-endian bytes of `v`, folded into `h`.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

TEST(EccSchemeSecded, EncodeDigestOnRandomCorpusIsPinned) {
  // The check words of 20 000 seeded data words: any change to the
  // Hamming(72,64) parity layout moves the digest.
  const auto scheme = make_ecc_scheme({EccKind::kSecded, 64});
  Rng rng(1001);
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t word = rng.next_u64();
    std::uint64_t check = 0;
    scheme->encode(&word, &check);
    ASSERT_LT(check, 256u) << "word " << i;
    fnv_fold(h, check);
  }
  EXPECT_EQ(h, 0x526D8F4898C3F27CULL);
}

TEST(EccSchemeSecded, DecodeDigestUnderRandomCorruptionIsPinned) {
  // 0..3 random codeword-bit flips per word, so the corpus covers clean,
  // corrected, detected and (beyond the guarantee) miscorrected codewords.
  // The digest folds (status, data, check) after each decode, so behaviour
  // outside the t/d guarantee is pinned too.
  const auto scheme = make_ecc_scheme({EccKind::kSecded, 64});
  Rng rng(2002);
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t data = rng.next_u64();
    std::uint64_t check = 0;
    scheme->encode(&data, &check);
    const int flips = static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      const unsigned pos = static_cast<unsigned>(rng.next_u64() % 72);
      if (pos < 64)
        data ^= std::uint64_t{1} << pos;
      else
        check ^= std::uint64_t{1} << (pos - 64);
    }
    const EccDecode r = scheme->decode(&data, &check);
    fnv_fold(h, static_cast<std::uint64_t>(r.status));
    fnv_fold(h, data);
    fnv_fold(h, check);
  }
  EXPECT_EQ(h, 0x1E998251792E6C54ULL);
}

// ------------------------------------------------------------------ registry

TEST(EccSchemeRegistry, CheckBitSizingMatchesTheDeclaredOverhead) {
  // (kind, data_bits) -> exact auto check-bit count. These are the storage
  // contracts the README documents; a change here is a breaking change to
  // every placement that stores check words.
  const struct {
    EccSpec spec;
    std::size_t check_bits;
  } expected[] = {
      {{EccKind::kNone, 64}, 0},     {{EccKind::kParity, 64}, 1},
      {{EccKind::kSecded, 64}, 8},   {{EccKind::kHsiao, 64}, 8},
      {{EccKind::kHsiao, 128}, 9},   {{EccKind::kBch, 64}, 15},
      {{EccKind::kBch, 4096}, 27},   {{EccKind::kBch, 32768}, 33},
  };
  for (const auto& e : expected) {
    const auto scheme = make_ecc_scheme(e.spec);
    EXPECT_EQ(scheme->check_bits(), e.check_bits) << scheme->name();
    EXPECT_EQ(scheme->data_bits(), e.spec.data_bits);
    EXPECT_DOUBLE_EQ(scheme->storage_overhead(),
                     static_cast<double>(e.check_bits) /
                         static_cast<double>(e.spec.data_bits));
  }
  // The classic SECDED overhead: one check byte per 64-bit word.
  EXPECT_DOUBLE_EQ(make_ecc_scheme({EccKind::kSecded, 64})->storage_overhead(),
                   0.125);
}

TEST(EccSchemeRegistry, CleanCodewordsAlwaysDecodeClean) {
  Rng rng(3003);
  for (const auto& spec : registered_ecc_specs()) {
    const auto scheme = make_ecc_scheme(spec);
    for (int i = 0; i < 16; ++i) {
      std::vector<std::uint64_t> data(scheme->data_words());
      std::vector<std::uint64_t> check(scheme->check_words());
      for (auto& w : data) w = rng.next_u64();
      scheme->encode(data.data(), check.data());
      const auto orig_data = data;
      const auto orig_check = check;
      const EccDecode r = scheme->decode(data.data(), check.data());
      EXPECT_EQ(r.status, EccStatus::kClean) << scheme->name();
      EXPECT_EQ(r.bits_corrected, 0u) << scheme->name();
      EXPECT_EQ(data, orig_data) << scheme->name();
      EXPECT_EQ(check, orig_check) << scheme->name();
    }
  }
}

TEST(EccSchemeRegistry, AnyCorruptionWithinTheGuaranteeIsFullyRestored) {
  // Property/fuzz: <= t random distinct codeword-bit flips round-trip to the
  // exact original codeword, for every registered scheme with t >= 1.
  Rng rng(4004);
  for (const auto& spec : registered_ecc_specs()) {
    const auto scheme = make_ecc_scheme(spec);
    const unsigned t = scheme->correctable_bits();
    if (t == 0) continue;
    const std::size_t n = scheme->data_bits() + scheme->check_bits();
    for (int i = 0; i < 50; ++i) {
      std::vector<std::uint64_t> data(scheme->data_words());
      std::vector<std::uint64_t> check(scheme->check_words());
      for (auto& w : data) w = rng.next_u64();
      scheme->encode(data.data(), check.data());
      const auto orig_data = data;
      const auto orig_check = check;
      const unsigned k = 1 + static_cast<unsigned>(rng.next_u64() % t);
      std::vector<std::size_t> pos;
      while (pos.size() < k) {
        const std::size_t p = rng.next_u64() % n;
        bool dup = false;
        for (const std::size_t q : pos) dup = dup || q == p;
        if (!dup) pos.push_back(p);
      }
      for (const std::size_t p : pos) {
        if (p < scheme->data_bits())
          data[p / 64] ^= std::uint64_t{1} << (p % 64);
        else
          check[(p - scheme->data_bits()) / 64] ^=
              std::uint64_t{1} << ((p - scheme->data_bits()) % 64);
      }
      const EccDecode r = scheme->decode(data.data(), check.data());
      ASSERT_EQ(r.status, EccStatus::kCorrected)
          << scheme->name() << " iteration " << i;
      EXPECT_EQ(r.bits_corrected, k) << scheme->name();
      EXPECT_EQ(data, orig_data) << scheme->name();
      EXPECT_EQ(check, orig_check) << scheme->name();
    }
  }
}

TEST(EccSchemeRegistry, TolerableRawBerInvertsTheResidualRate) {
  const auto none = make_ecc_scheme({EccKind::kNone, 64});
  const auto parity = make_ecc_scheme({EccKind::kParity, 64});
  const auto secded = make_ecc_scheme({EccKind::kSecded, 64});
  const auto bch = make_ecc_scheme({EccKind::kBch, 64});
  // Detection alone restores no bits: pass-through.
  EXPECT_DOUBLE_EQ(none->tolerable_raw_ber(1e-5), 1e-5);
  EXPECT_DOUBLE_EQ(parity->tolerable_raw_ber(1e-5), 1e-5);
  // t=1 over n=72: sqrt(post * n / (2 * C(72,2))) ~ 3.75e-4.
  EXPECT_NEAR(secded->tolerable_raw_ber(1e-5), 3.753e-4, 1e-6);
  // t=2 over n=79: cbrt(post * n / (3 * C(79,3))) ~ 1.49e-3.
  EXPECT_NEAR(bch->tolerable_raw_ber(1e-5), 1.494e-3, 5e-6);
  // A stronger code tolerates a strictly higher raw BER; tolerance grows
  // with the acceptable residual and never exceeds the 0.4 cap.
  EXPECT_GT(bch->tolerable_raw_ber(1e-5), secded->tolerable_raw_ber(1e-5));
  EXPECT_GT(secded->tolerable_raw_ber(1e-3), secded->tolerable_raw_ber(1e-5));
  EXPECT_LE(bch->tolerable_raw_ber(0.3), 0.4);
}

TEST(EccSchemeRegistry, EscalationLaddersEndAtBch) {
  const auto off = ecc_escalation_ladder({EccKind::kNone, 64});
  ASSERT_EQ(off.size(), 1u);
  EXPECT_EQ(off[0].kind, EccKind::kNone);

  const auto parity = ecc_escalation_ladder({EccKind::kParity, 64});
  ASSERT_EQ(parity.size(), 3u);
  EXPECT_EQ(parity[0].kind, EccKind::kParity);
  EXPECT_EQ(parity[1].kind, EccKind::kSecded);
  EXPECT_EQ(parity[2].kind, EccKind::kBch);

  const auto parity4k = ecc_escalation_ladder({EccKind::kParity, 4096});
  ASSERT_EQ(parity4k.size(), 3u);
  EXPECT_EQ(parity4k[1].kind, EccKind::kHsiao);
  EXPECT_EQ(parity4k[1].data_bits, 4096u);
  EXPECT_EQ(parity4k[2].kind, EccKind::kBch);

  const auto secded = ecc_escalation_ladder({EccKind::kSecded, 64});
  ASSERT_EQ(secded.size(), 2u);
  EXPECT_EQ(secded[1].kind, EccKind::kBch);

  const auto bch = ecc_escalation_ladder({EccKind::kBch, 4096});
  ASSERT_EQ(bch.size(), 1u);

  // Every ladder step is constructible, keeps the codeword size, and
  // strictly increases the tolerable raw BER.
  for (const auto& base : registered_ecc_specs()) {
    const auto ladder = ecc_escalation_ladder(base);
    double prev = -1.0;
    for (const auto& step : ladder) {
      EXPECT_EQ(step.data_bits, base.data_bits);
      const auto scheme = make_ecc_scheme(step);
      const double tol = scheme->tolerable_raw_ber(1e-5);
      EXPECT_GE(tol, prev) << ecc_label(step);
      prev = tol;
    }
  }
}

TEST(EccSchemeRegistry, SpecValidateRejectsInfeasibleShapes) {
  EXPECT_THROW(EccSpec({EccKind::kSecded, 128}).validate(),
               ContractViolation);
  EXPECT_THROW(EccSpec({EccKind::kNone, 48}).validate(), ContractViolation);
  EXPECT_THROW(EccSpec({EccKind::kHsiao, 8192}).validate(),
               ContractViolation);
  EXPECT_NO_THROW(EccSpec({EccKind::kBch, 32768}).validate());
  EXPECT_NO_THROW(EccSpec({EccKind::kHsiao, 4096}).validate());
  EXPECT_EQ(ecc_label({EccKind::kBch, 4096}), "bch4096b");
  EXPECT_EQ(ecc_label({EccKind::kSecded, 64}), "secded");
  EXPECT_EQ(ecc_label({EccKind::kNone, 64}), "off");
}

// ------------------------------------------------------------------- buffers

TEST(EccSchemeBuffers, EncodeCountAndFloatEquivalentTracksTheCodewords) {
  const auto secded = make_ecc_scheme({EccKind::kSecded, 64});
  EXPECT_EQ(ecc_codeword_count(*secded, 10), 5u);
  // 5 codewords x 8 check bits = 40 bits -> 2 FP32 words.
  EXPECT_EQ(ecc_check_float_equiv(*secded, 10), 2u);
  const auto bch = make_ecc_scheme({EccKind::kBch, 4096});
  EXPECT_EQ(ecc_codeword_count(*bch, 200), 2u);  // 128 floats per codeword
  EXPECT_EQ(ecc_check_float_equiv(*bch, 200), 2u);  // 54 bits -> 2 words

  std::vector<float> w(10, 0.5f);
  EXPECT_EQ(ecc_encode_buffer(*secded, w).size(), 5u);
}

TEST(EccSchemeBuffers, ScrubRestoresWithinGuaranteeAndStaysRevertible) {
  Rng rng(5005);
  for (const auto& spec : registered_ecc_specs()) {
    if (!spec.enabled()) continue;
    const auto scheme = make_ecc_scheme(spec);
    const unsigned t = scheme->correctable_bits();
    std::vector<float> w(3 * spec.data_bits / 32 + 1);
    for (auto& v : w)
      v = static_cast<float>(rng.next_u64() % 1000) / 1000.0f;
    const auto original = w;
    const auto checks = ecc_encode_buffer(*scheme, w);

    // Inject <= t raw flips into one codeword (codeword 1), recording the
    // delta exactly like the frozen-injection hot path does.
    std::vector<WeightFlip> flips;
    const std::size_t floats_per_cw = spec.data_bits / 32;
    const unsigned k = t == 0 ? 1 : t;
    for (unsigned f = 0; f < k; ++f) {
      const std::uint32_t word =
          static_cast<std::uint32_t>(floats_per_cw + f % floats_per_cw);
      flips.push_back({word, w[word]});
      w[word] = flip_float_bit(w[word], 5 + 7 * f);
    }
    const std::size_t n_injected = flips.size();
    const SanitizeRange clip{0.0f, 1.0f, true};
    const EccScrubStats st =
        ecc_scrub_codewords(*scheme, w, checks, flips, n_injected, clip);
    EXPECT_EQ(st.codewords, 1u) << scheme->name();
    if (t >= 1) {
      // Within the guarantee: the buffer is bit-for-bit clean again.
      EXPECT_EQ(st.corrected, 1u) << scheme->name();
      for (std::size_t i = 0; i < w.size(); ++i)
        ASSERT_EQ(float_to_bits(w[i]), float_to_bits(original[i]))
            << scheme->name() << " word " << i;
    } else {
      EXPECT_EQ(st.corrected, 0u) << scheme->name();
    }

    // Reverting the recorded delta restores the pre-injection buffer
    // bit for bit — corrections, detections, and clips included.
    revert_flips(w, flips);
    for (std::size_t i = 0; i < w.size(); ++i)
      ASSERT_EQ(float_to_bits(w[i]), float_to_bits(original[i]))
          << scheme->name() << " word " << i << " after revert";
  }
}

TEST(EccSchemeBuffers, ScrubClipsWhatTheCodeCannotRestore) {
  // Two flips in one SECDED codeword: detected, not corrected — the
  // injected words must go through the load-time clip (no raw Inf/NaN may
  // reach inference), and the delta must still revert bit for bit.
  const auto scheme = make_ecc_scheme({EccKind::kSecded, 64});
  std::vector<float> w(4, 0.75f);
  const auto original = w;
  const auto checks = ecc_encode_buffer(*scheme, w);
  std::vector<WeightFlip> flips;
  flips.push_back({0, w[0]});
  w[0] = flip_float_bit(w[0], 30);  // exponent flip -> huge value
  flips.push_back({1, w[1]});
  w[1] = flip_float_bit(w[1], 3);
  const SanitizeRange clip{0.0f, 1.0f, true};
  const EccScrubStats st =
      ecc_scrub_codewords(*scheme, w, checks, flips, 2, clip);
  EXPECT_EQ(st.detected, 1u);
  EXPECT_EQ(st.corrected, 0u);
  EXPECT_LE(w[0], 1.0f);  // clipped, not raw
  revert_flips(w, flips);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(float_to_bits(w[i]), float_to_bits(original[i]));
}

}  // namespace
}  // namespace sparkxd::error
