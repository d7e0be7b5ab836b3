#include "error/ecc_scheme.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace sparkxd::error {

namespace {

// --- bit addressing over little-endian uint64 arrays -----------------------

[[nodiscard]] inline bool get_bit(const std::uint64_t* words, std::size_t bit) {
  return (words[bit / 64] >> (bit % 64)) & 1u;
}

inline void flip_word_bit(std::uint64_t* words, std::size_t bit) {
  words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
}

[[nodiscard]] inline unsigned parity_of(const std::uint64_t* words,
                                        std::size_t n_words) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n_words; ++i) acc ^= words[i];
  return static_cast<unsigned>(std::popcount(acc)) & 1u;
}

// --- None: t=0, d=0 --------------------------------------------------------

class NoneScheme final : public EccScheme {
 public:
  explicit NoneScheme(std::size_t data_bits) : EccScheme(data_bits, 0) {}

  [[nodiscard]] EccKind kind() const noexcept override { return EccKind::kNone; }
  [[nodiscard]] std::string name() const override { return "off"; }
  [[nodiscard]] unsigned correctable_bits() const noexcept override { return 0; }

  void encode(const std::uint64_t*, std::uint64_t*) const override {}
  EccDecode decode(std::uint64_t*, std::uint64_t*) const override {
    return {EccStatus::kClean, 0};
  }
};

// --- Parity: one bit per codeword, t=0, d=1 --------------------------------

class ParityScheme final : public EccScheme {
 public:
  explicit ParityScheme(std::size_t data_bits) : EccScheme(data_bits, 1) {}

  [[nodiscard]] EccKind kind() const noexcept override {
    return EccKind::kParity;
  }
  [[nodiscard]] std::string name() const override {
    return "parity(" + std::to_string(data_bits_ + 1) + "," +
           std::to_string(data_bits_) + ")";
  }
  [[nodiscard]] unsigned correctable_bits() const noexcept override { return 0; }

  void encode(const std::uint64_t* data, std::uint64_t* check) const override {
    check[0] = parity_of(data, data_words());
  }

  EccDecode decode(std::uint64_t* data, std::uint64_t* check) const override {
    const unsigned mismatch =
        parity_of(data, data_words()) ^ (static_cast<unsigned>(check[0]) & 1u);
    return {mismatch ? EccStatus::kDetected : EccStatus::kClean, 0};
  }
};

// --- Secded: Hamming(71,64) + overall parity = SECDED(72,64) --------------
//
// Codeword positions are numbered 1..71; positions that are powers of two
// (1,2,4,...,64) carry the 7 Hamming parity bits and the remaining 64
// positions carry the data bits in ascending order. Check bit 7 is the
// overall parity of all 71 positions (data + Hamming bits). On kCorrected
// the check byte is re-derived from the corrected data so the stored
// codeword is valid again.

/// kSecdedDataPos[i] = codeword position (1..71) of data bit i.
constexpr std::array<std::uint8_t, 64> make_secded_data_positions() {
  std::array<std::uint8_t, 64> map{};
  std::size_t i = 0;
  for (std::uint8_t pos = 1; pos <= 71 && i < 64; ++pos) {
    if ((pos & (pos - 1)) == 0) continue;  // parity position
    map[i++] = pos;
  }
  return map;
}

constexpr auto kSecdedDataPos = make_secded_data_positions();

/// kSecdedPosToData[pos] = data bit index + 1, or 0 for a parity position.
constexpr std::array<std::uint8_t, 72> make_secded_position_map() {
  std::array<std::uint8_t, 72> map{};
  for (std::size_t i = 0; i < kSecdedDataPos.size(); ++i)
    map[kSecdedDataPos[i]] = static_cast<std::uint8_t>(i + 1);
  return map;
}

constexpr auto kSecdedPosToData = make_secded_position_map();

class SecdedScheme final : public EccScheme {
 public:
  SecdedScheme() : EccScheme(64, 8) {}

  [[nodiscard]] EccKind kind() const noexcept override {
    return EccKind::kSecded;
  }
  [[nodiscard]] std::string name() const override { return "secded(72,64)"; }
  [[nodiscard]] unsigned correctable_bits() const noexcept override { return 1; }

  void encode(const std::uint64_t* data, std::uint64_t* check) const override {
    check[0] = check_byte(data[0]);
  }

  EccDecode decode(std::uint64_t* data, std::uint64_t* check) const override {
    // Syndrome: recomputed Hamming bits vs the stored ones — for a single
    // flipped data bit this equals that bit's codeword position; for a
    // single flipped Hamming bit it equals that (power-of-two) position.
    const auto stored_h = static_cast<unsigned>(check[0] & 0x7F);
    const unsigned syndrome = hamming_bits(data[0]) ^ stored_h;
    // Overall parity of the received 72-bit codeword; 1 for any odd number
    // of flipped bits.
    const unsigned overall =
        (std::popcount(data[0]) + std::popcount(stored_h) +
         static_cast<unsigned>((check[0] >> 7) & 1u)) &
        1u;
    if (syndrome == 0 && overall == 0) return {EccStatus::kClean, 0};
    // Even number of flipped bits with a non-zero syndrome: double error.
    if (overall == 0) return {EccStatus::kDetected, 0};
    // Odd number of errors: assume single. If the syndrome names a data
    // position, flip that data bit back; otherwise the error was in the
    // check byte itself and the data is fine.
    const std::uint64_t old_data = data[0];
    const std::uint64_t old_check = check[0];
    if (syndrome != 0 && syndrome < 72 && kSecdedPosToData[syndrome] != 0)
      data[0] ^= std::uint64_t{1} << (kSecdedPosToData[syndrome] - 1u);
    check[0] = check_byte(data[0]);
    const unsigned flipped =
        static_cast<unsigned>(std::popcount(old_data ^ data[0]) +
                              std::popcount(old_check ^ check[0]));
    return {EccStatus::kCorrected, flipped};
  }

 private:
  /// The 7 Hamming parity bits: bit k is the parity of the data bits whose
  /// codeword position has bit k set.
  [[nodiscard]] static unsigned hamming_bits(std::uint64_t data) {
    unsigned parity = 0;
    for (unsigned k = 0; k < 7; ++k) {
      std::uint64_t acc = 0;
      for (unsigned i = 0; i < 64; ++i)
        if (kSecdedDataPos[i] & (1u << k)) acc ^= (data >> i) & 1u;
      parity |= static_cast<unsigned>(acc << k);
    }
    return parity;
  }

  /// Hamming bits plus the overall parity across data and Hamming bits.
  [[nodiscard]] static std::uint64_t check_byte(std::uint64_t data) {
    const unsigned h = hamming_bits(data);
    const unsigned overall = (std::popcount(data) + std::popcount(h)) & 1u;
    return h | (overall << 7);
  }
};

// --- Hsiao: odd-weight-column SECDED at any codeword size ------------------
//
// H = [A | I_k]: the k check columns are the identity (weight 1), every
// data column is a distinct odd-weight (>= 3) k-bit vector chosen in
// ascending (weight, value) order — the minimum-total-weight construction.
// Any double error XORs two odd columns into an even, nonzero syndrome
// that can match neither a data column nor a check column, so 2-bit
// patterns are always detected and never miscorrected.

/// Fewest check bits k whose odd-weight (>= 3) columns cover data_bits.
[[nodiscard]] std::size_t hsiao_min_k(std::size_t data_bits) {
  for (std::size_t k = 4; k <= 16; ++k) {
    // Count the odd-weight >= 3 columns available with k check bits.
    std::size_t columns = 0;
    for (std::size_t w = 3; w <= k; w += 2) {
      std::uint64_t c = 1;
      for (std::size_t j = 0; j < w; ++j) c = c * (k - j) / (j + 1);
      columns += c;
    }
    if (columns >= data_bits) return k;
  }
  SPARKXD_REQUIRE(false, "hsiao(" + std::to_string(data_bits) +
                             ") exceeds 16 check bits");
  return 0;
}

class HsiaoScheme final : public EccScheme {
 public:
  explicit HsiaoScheme(std::size_t data_bits)
      : EccScheme(data_bits, hsiao_min_k(data_bits)) {
    const std::size_t k = check_bits_;
    col_.reserve(data_bits);
    for (unsigned weight = 3; weight <= k && col_.size() < data_bits;
         weight += 2) {
      for (std::uint32_t v = 0;
           v < (std::uint32_t{1} << k) && col_.size() < data_bits; ++v) {
        if (static_cast<unsigned>(std::popcount(v)) == weight)
          col_.push_back(v);
      }
    }
    by_value_.reserve(data_bits);
    for (std::uint32_t i = 0; i < data_bits; ++i)
      by_value_.push_back({col_[i], i});
    std::sort(by_value_.begin(), by_value_.end());
  }

  [[nodiscard]] EccKind kind() const noexcept override {
    return EccKind::kHsiao;
  }
  [[nodiscard]] std::string name() const override {
    return "hsiao(" + std::to_string(data_bits_ + check_bits_) + "," +
           std::to_string(data_bits_) + ")";
  }
  [[nodiscard]] unsigned correctable_bits() const noexcept override { return 1; }

  void encode(const std::uint64_t* data, std::uint64_t* check) const override {
    check[0] = syndrome_of(data);
  }

  EccDecode decode(std::uint64_t* data, std::uint64_t* check) const override {
    const std::uint32_t synd =
        syndrome_of(data) ^ (static_cast<std::uint32_t>(check[0]) &
                             ((std::uint32_t{1} << check_bits_) - 1u));
    if (synd == 0) return {EccStatus::kClean, 0};
    const unsigned weight = static_cast<unsigned>(std::popcount(synd));
    if (weight == 1) {  // identity column: a check bit flipped
      check[0] ^= synd;
      return {EccStatus::kCorrected, 1};
    }
    if ((weight & 1u) == 0) return {EccStatus::kDetected, 0};
    const auto it = std::lower_bound(by_value_.begin(), by_value_.end(),
                                     std::pair<std::uint32_t, std::uint32_t>{
                                         synd, 0});
    if (it == by_value_.end() || it->first != synd)
      return {EccStatus::kDetected, 0};
    flip_word_bit(data, it->second);
    return {EccStatus::kCorrected, 1};
  }

 private:
  [[nodiscard]] std::uint32_t syndrome_of(const std::uint64_t* data) const {
    std::uint32_t acc = 0;
    for (std::size_t w = 0; w < data_words(); ++w) {
      std::uint64_t bits = data[w];
      while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        acc ^= col_[w * 64 + b];
      }
    }
    return acc;
  }

  std::vector<std::uint32_t> col_;  // data bit index -> H column
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_value_;
};

// --- BchT2: shortened binary BCH (designed distance 5) + overall parity ----
//
// Generator g(x) = m1(x) * m3(x) over GF(2^m) gives a cyclic code that
// corrects 2 errors; the appended overall parity bit raises d_min to >= 6
// so weight-3 patterns are guaranteed detected. The codeword is laid out
// systematically: cyclic position j < r holds check bit j (the remainder),
// cyclic position r + i holds data bit i, and the parity bit is stored as
// check bit r (outside the cyclic code).

constexpr std::array<std::uint32_t, 17> kPrimitivePoly = {
    0,      0,      0,      0,      0,       // m < 5 unused
    0x25,   0x43,   0x89,   0x11D,  0x211,   // m = 5..9
    0x409,  0x805,  0x1053, 0x201B, 0x4443,  // m = 10..14
    0x8003, 0x1100B,                         // m = 15..16
};

class BchScheme final : public EccScheme {
 public:
  BchScheme(std::size_t data_bits, unsigned m)
      : EccScheme(data_bits, 2 * m + 1),
        m_(m),
        order_((std::uint32_t{1} << m) - 1),
        r_(2 * m) {
    SPARKXD_REQUIRE(r_ + data_bits <= order_,
                    "bch(" + std::to_string(data_bits) +
                        ") does not fit GF(2^" + std::to_string(m) + ")");
    build_field();
    build_generator();
  }

  [[nodiscard]] EccKind kind() const noexcept override { return EccKind::kBch; }
  [[nodiscard]] std::string name() const override {
    return "bch(" + std::to_string(data_bits_ + check_bits_) + "," +
           std::to_string(data_bits_) + ")";
  }
  [[nodiscard]] unsigned correctable_bits() const noexcept override { return 2; }

  void encode(const std::uint64_t* data, std::uint64_t* check) const override {
    std::uint64_t rem = 0;
    const std::uint64_t mask = (std::uint64_t{1} << r_) - 1;
    for (std::size_t i = data_bits_; i-- > 0;) {
      const unsigned fb =
          (get_bit(data, i) ? 1u : 0u) ^
          (static_cast<unsigned>(rem >> (r_ - 1)) & 1u);
      rem = (rem << 1) & mask;
      if (fb) rem ^= glow_;
    }
    const unsigned parity = parity_of(data, data_words()) ^
                            (static_cast<unsigned>(std::popcount(rem)) & 1u);
    check[0] = rem | (std::uint64_t{parity} << r_);
  }

  EccDecode decode(std::uint64_t* data, std::uint64_t* check) const override {
    std::uint32_t s1 = 0, s3 = 0;
    unsigned par = 0;
    syndromes(data, check, s1, s3, par);
    if (s1 == 0 && s3 == 0 && par == 0) return {EccStatus::kClean, 0};

    const std::size_t ncw = r_ + data_bits_;  // cyclic length
    const std::size_t kParityPos = ncw;       // sentinel: the parity bit
    std::size_t cand[2];
    std::size_t n_cand = 0;

    if (s1 == 0 && s3 == 0) {
      cand[n_cand++] = kParityPos;  // only the parity bit disagrees
    } else if (s1 != 0 && s3 == gf_pow3(s1)) {
      // Single cyclic error at log(S1); a clean parity bit then means the
      // parity bit itself is the second error.
      const std::size_t pos = log_[s1];
      if (pos >= ncw) return {EccStatus::kDetected, 0};
      cand[n_cand++] = pos;
      if (par == 0) cand[n_cand++] = kParityPos;
    } else if (s1 == 0) {
      return {EccStatus::kDetected, 0};  // S3 alone: >= 3 errors
    } else {
      // Two-error locator: sigma1 = S1, sigma2 = (S3 + S1^3) / S1;
      // Lambda(x) = 1 + sigma1 x + sigma2 x^2, roots found by Chien
      // search with incremental alpha^-1 / alpha^-2 stepping.
      if (par != 0) return {EccStatus::kDetected, 0};  // odd weight >= 3
      const std::uint32_t sigma2 = gf_div(s3 ^ gf_pow3(s1), s1);
      std::uint32_t t1 = s1, t2 = sigma2;
      const std::uint32_t inv1 = exp_[order_ - 1];
      const std::uint32_t inv2 = exp_[order_ - 2];
      for (std::size_t i = 0; i < ncw && n_cand <= 2; ++i) {
        if ((1u ^ t1 ^ t2) == 0) {
          if (n_cand == 2) return {EccStatus::kDetected, 0};
          cand[n_cand++] = i;
        }
        t1 = gf_mul(t1, inv1);
        t2 = gf_mul(t2, inv2);
      }
      if (n_cand != 2) return {EccStatus::kDetected, 0};
    }

    for (std::size_t i = 0; i < n_cand; ++i) flip_codeword_bit(data, check, cand[i]);
    std::uint32_t v1 = 0, v3 = 0;
    unsigned vpar = 0;
    syndromes(data, check, v1, v3, vpar);
    if (v1 != 0 || v3 != 0 || vpar != 0) {
      for (std::size_t i = 0; i < n_cand; ++i)
        flip_codeword_bit(data, check, cand[i]);
      return {EccStatus::kDetected, 0};
    }
    return {EccStatus::kCorrected, static_cast<unsigned>(n_cand)};
  }

 private:
  void build_field() {
    const std::uint32_t poly = kPrimitivePoly[m_];
    exp_.assign(order_, 0);
    log_.assign(order_ + 1, 0);
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < order_; ++i) {
      exp_[i] = x;
      log_[x] = i;
      x <<= 1;
      if (x > order_) x ^= poly;
    }
    SPARKXD_REQUIRE(x == 1, "GF(2^" + std::to_string(m_) +
                                ") polynomial is not primitive");
  }

  [[nodiscard]] std::uint32_t gf_mul(std::uint32_t a, std::uint32_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[(log_[a] + log_[b]) % order_];
  }
  [[nodiscard]] std::uint32_t gf_div(std::uint32_t a, std::uint32_t b) const {
    if (a == 0) return 0;
    return exp_[(log_[a] + order_ - log_[b]) % order_];
  }
  [[nodiscard]] std::uint32_t gf_pow3(std::uint32_t a) const {
    if (a == 0) return 0;
    return exp_[(3u * log_[a]) % order_];
  }

  /// Minimal polynomial of alpha^c: product of (x + alpha^s) over the
  /// cyclotomic coset of c. Coefficients come out in GF(2) = {0, 1}.
  [[nodiscard]] std::vector<std::uint32_t> min_poly(std::uint32_t c) const {
    std::vector<std::uint32_t> poly = {1};
    std::uint32_t s = c;
    do {
      std::vector<std::uint32_t> next(poly.size() + 1, 0);
      for (std::size_t i = 0; i < poly.size(); ++i) {
        next[i + 1] ^= poly[i];
        next[i] ^= gf_mul(poly[i], exp_[s]);
      }
      poly = std::move(next);
      s = (2 * s) % order_;
    } while (s != c);
    return poly;
  }

  void build_generator() {
    const std::vector<std::uint32_t> m1 = min_poly(1);
    const std::vector<std::uint32_t> m3 = min_poly(3);
    std::vector<std::uint32_t> g(m1.size() + m3.size() - 1, 0);
    for (std::size_t i = 0; i < m1.size(); ++i)
      for (std::size_t j = 0; j < m3.size(); ++j)
        g[i + j] ^= gf_mul(m1[i], m3[j]);
    SPARKXD_REQUIRE(g.size() == r_ + 1,
                    "bch generator degree " + std::to_string(g.size() - 1) +
                        " != " + std::to_string(r_));
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      SPARKXD_REQUIRE(g[i] <= 1, "bch generator has a non-binary coefficient");
      if (g[i]) packed |= std::uint64_t{1} << i;
    }
    glow_ = packed & ((std::uint64_t{1} << r_) - 1);
  }

  /// S1 = sum alpha^pos, S3 = sum alpha^(3 pos) over set cyclic bits;
  /// par = parity of the whole stored codeword including the parity bit.
  void syndromes(const std::uint64_t* data, const std::uint64_t* check,
                 std::uint32_t& s1, std::uint32_t& s3, unsigned& par) const {
    s1 = 0;
    s3 = 0;
    std::uint64_t pacc = check[0] & ((std::uint64_t{1} << (r_ + 1)) - 1);
    std::uint64_t cbits = check[0] & ((std::uint64_t{1} << r_) - 1);
    while (cbits != 0) {
      const unsigned pos = static_cast<unsigned>(std::countr_zero(cbits));
      cbits &= cbits - 1;
      s1 ^= exp_[pos % order_];
      s3 ^= exp_[(3u * pos) % order_];
    }
    for (std::size_t w = 0; w < data_words(); ++w) {
      std::uint64_t bits = data[w];
      pacc ^= bits;
      while (bits != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t pos = r_ + w * 64 + b;
        s1 ^= exp_[pos % order_];
        s3 ^= exp_[(3u * pos) % order_];
      }
    }
    par = static_cast<unsigned>(std::popcount(pacc)) & 1u;
  }

  void flip_codeword_bit(std::uint64_t* data, std::uint64_t* check,
                         std::size_t pos) const {
    const std::size_t ncw = r_ + data_bits_;
    if (pos == ncw) {
      check[0] ^= std::uint64_t{1} << r_;  // the parity bit
    } else if (pos < r_) {
      check[0] ^= std::uint64_t{1} << pos;
    } else {
      flip_word_bit(data, pos - r_);
    }
  }

  unsigned m_;
  std::uint32_t order_;  // 2^m - 1
  std::size_t r_;        // deg g = 2m cyclic check bits (+1 parity bit)
  std::uint64_t glow_ = 0;
  std::vector<std::uint32_t> exp_;
  std::vector<std::uint32_t> log_;
};

[[nodiscard]] unsigned bch_field_bits(std::size_t data_bits) {
  for (unsigned m = 5; m <= 16; ++m) {
    if (data_bits + 2 * m <= (std::size_t{1} << m) - 1) return m;
  }
  SPARKXD_REQUIRE(false,
                  "bch(" + std::to_string(data_bits) + ") exceeds GF(2^16)");
  return 0;
}

}  // namespace

const char* to_string(EccKind kind) noexcept {
  switch (kind) {
    case EccKind::kNone: return "off";
    case EccKind::kParity: return "parity";
    case EccKind::kSecded: return "secded";
    case EccKind::kHsiao: return "hsiao";
    case EccKind::kBch: return "bch";
  }
  return "off";
}

void EccSpec::validate() const {
  SPARKXD_REQUIRE(data_bits >= 32 && data_bits <= 32768 && data_bits % 32 == 0,
                  "ecc data_bits must be a multiple of 32 in [32, 32768], "
                  "got " +
                      std::to_string(data_bits));
  SPARKXD_REQUIRE(kind != EccKind::kSecded || data_bits == 64,
                  "secded is the fixed Hamming(72,64); use hsiao or bch "
                  "for other codeword sizes");
  SPARKXD_REQUIRE(kind != EccKind::kHsiao || data_bits <= 4096,
                  "hsiao supports data_bits <= 4096; use bch for the "
                  "large-codeword mode");
}

std::string ecc_label(const EccSpec& spec) {
  std::string label = to_string(spec.kind);
  if (spec.enabled() && spec.data_bits != 64)
    label += std::to_string(spec.data_bits) + "b";
  return label;
}

double EccScheme::decode_latency_ns() const noexcept {
  // Syndrome checks are flat XOR trees; BCH adds an algebraic stage whose
  // Chien search walks the codeword.
  switch (kind()) {
    case EccKind::kNone: return 0.0;
    case EccKind::kParity: return 0.5;
    case EccKind::kSecded:
    case EccKind::kHsiao: return 1.5;
    case EccKind::kBch:
      return 6.0 + 0.002 * static_cast<double>(data_bits_);
  }
  return 0.0;
}

double EccScheme::decode_energy_nj() const noexcept {
  double nj = 0.002 * static_cast<double>(check_bits_);
  if (kind() == EccKind::kBch)
    nj += 0.0002 * static_cast<double>(data_bits_);
  return nj;
}

double EccScheme::tolerable_raw_ber(double post_ber) const {
  const unsigned t = correctable_bits();
  if (t == 0 || post_ber <= 0.0) return post_ber;
  const double n = static_cast<double>(data_bits_ + check_bits_);
  double comb = 1.0;  // C(n, t+1)
  for (unsigned j = 0; j <= t; ++j) comb = comb * (n - j) / (j + 1);
  const double raw =
      std::pow(post_ber * n / ((t + 1) * comb), 1.0 / (t + 1));
  return std::min(std::max(raw, post_ber), 0.4);
}

std::unique_ptr<EccScheme> make_ecc_scheme(const EccSpec& spec) {
  spec.validate();
  switch (spec.kind) {
    case EccKind::kNone:
      return std::make_unique<NoneScheme>(spec.data_bits);
    case EccKind::kParity:
      return std::make_unique<ParityScheme>(spec.data_bits);
    case EccKind::kSecded:
      return std::make_unique<SecdedScheme>();
    case EccKind::kHsiao:
      return std::make_unique<HsiaoScheme>(spec.data_bits);
    case EccKind::kBch:
      return std::make_unique<BchScheme>(spec.data_bits,
                                         bch_field_bits(spec.data_bits));
  }
  return std::make_unique<NoneScheme>(spec.data_bits);
}

std::vector<EccSpec> ecc_escalation_ladder(const EccSpec& spec) {
  std::vector<EccSpec> ladder = {spec};
  const EccSpec bch{EccKind::kBch, spec.data_bits};
  switch (spec.kind) {
    case EccKind::kNone:
    case EccKind::kBch:
      break;
    case EccKind::kParity:
      if (spec.data_bits == 64) {
        ladder.push_back({EccKind::kSecded, 64});
      } else if (spec.data_bits <= 4096) {
        ladder.push_back({EccKind::kHsiao, spec.data_bits});
      }
      ladder.push_back(bch);
      break;
    case EccKind::kSecded:
    case EccKind::kHsiao:
      ladder.push_back(bch);
      break;
  }
  return ladder;
}

// ---------------------------------------------------------------------------
// Buffer helpers.

namespace {

/// Gathers codeword `cw` of `weights` into `dbuf` (zero-padded tail).
void gather_codeword(std::span<const float> weights, std::size_t cw,
                     std::size_t floats_per_cw, std::uint64_t* dbuf,
                     std::size_t data_words) {
  const std::size_t base = cw * floats_per_cw;
  const std::size_t count =
      std::min(floats_per_cw, weights.size() - base);
  std::fill(dbuf, dbuf + data_words, 0);
  std::memcpy(dbuf, weights.data() + base, count * sizeof(float));
}

}  // namespace

std::size_t ecc_codeword_count(const EccScheme& scheme,
                               std::size_t n_weights) {
  const std::size_t floats_per_cw = scheme.data_bits() / 32;
  return (n_weights + floats_per_cw - 1) / floats_per_cw;
}

std::size_t ecc_check_float_equiv(const EccScheme& scheme,
                                  std::size_t n_weights) {
  const std::size_t check_bits =
      ecc_codeword_count(scheme, n_weights) * scheme.check_bits();
  return (check_bits + 31) / 32;
}

std::vector<std::uint64_t> ecc_encode_buffer(const EccScheme& scheme,
                                             const std::vector<float>& weights) {
  SPARKXD_REQUIRE(scheme.data_bits() % 32 == 0,
                  "ecc codewords cover whole FP32 words");
  const std::size_t floats_per_cw = scheme.data_bits() / 32;
  const std::size_t n_cw = ecc_codeword_count(scheme, weights.size());
  const std::size_t cww = scheme.check_words();
  std::vector<std::uint64_t> checks(n_cw * cww, 0);
  std::vector<std::uint64_t> dbuf(scheme.data_words());
  for (std::size_t cw = 0; cw < n_cw; ++cw) {
    gather_codeword(weights, cw, floats_per_cw, dbuf.data(),
                    scheme.data_words());
    if (cww != 0) scheme.encode(dbuf.data(), checks.data() + cw * cww);
  }
  return checks;
}

EccScrubStats ecc_scrub_codewords(const EccScheme& scheme,
                                  std::span<float> weights,
                                  const std::vector<std::uint64_t>& checks,
                                  std::vector<WeightFlip>& flips,
                                  std::size_t n_injected,
                                  const SanitizeRange& post_sanitize) {
  const std::size_t floats_per_cw = scheme.data_bits() / 32;
  const std::size_t n_cw = ecc_codeword_count(scheme, weights.size());
  const std::size_t cww = scheme.check_words();
  SPARKXD_REQUIRE(checks.size() == n_cw * cww,
                  "check buffer does not match the weight buffer");
  SPARKXD_REQUIRE(n_injected <= flips.size(),
                  "n_injected exceeds the flip log");
  EccScrubStats stats;
  if (n_injected == 0) return stats;

  std::vector<std::uint32_t> dirty;
  dirty.reserve(n_injected);
  for (std::size_t i = 0; i < n_injected; ++i)
    dirty.push_back(flips[i].word / static_cast<std::uint32_t>(floats_per_cw));
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  std::vector<std::uint64_t> dbuf(scheme.data_words());
  std::vector<std::uint64_t> cbuf(cww);
  for (const std::uint32_t cw : dirty) {
    gather_codeword(weights, cw, floats_per_cw, dbuf.data(),
                    scheme.data_words());
    std::copy_n(checks.begin() + std::size_t{cw} * cww, cww, cbuf.begin());
    const EccDecode d = scheme.decode(dbuf.data(), cbuf.data());
    ++stats.codewords;
    stats.bits_corrected += d.bits_corrected;
    if (d.status == EccStatus::kCorrected) {
      ++stats.corrected;
      const std::size_t base = std::size_t{cw} * floats_per_cw;
      const std::size_t count =
          std::min(floats_per_cw, weights.size() - base);
      std::vector<float> corrected(count);
      std::memcpy(corrected.data(), dbuf.data(), count * sizeof(float));
      for (std::size_t j = 0; j < count; ++j) {
        float v = corrected[j];
        if (!std::isfinite(v)) sanitize_weight(v, post_sanitize);
        if (float_to_bits(v) == float_to_bits(weights[base + j])) continue;
        flips.push_back({static_cast<std::uint32_t>(base + j),
                         weights[base + j]});
        weights[base + j] = v;
      }
    } else {
      if (d.status == EccStatus::kDetected) ++stats.detected;
      // The code could not restore this codeword: its injected words go
      // through the load-time range clip, exactly like the unprotected
      // path would apply at injection time.
      for (std::size_t i = 0; i < n_injected; ++i) {
        if (flips[i].word / floats_per_cw != cw) continue;
        const std::uint32_t word = flips[i].word;
        float v = weights[word];
        const float before = v;
        sanitize_weight(v, post_sanitize);
        if (float_to_bits(v) == float_to_bits(before)) continue;
        flips.push_back({word, before});
        weights[word] = v;
      }
    }
  }
  return stats;
}

}  // namespace sparkxd::error
