#pragma once
// Pluggable ECC schemes — the third approximation axis (voltage × refresh ×
// ECC).
//
// SparkXD's first two knobs make the DRAM *worse* (lower voltage, relaxed
// refresh) and teach the network to cope; ECC spends storage and decode
// effort to make the stored weights *better* again. Every code runs through
// this one EccScheme interface, which lets the mapping trade code strength
// against BER_th per layer: a layer whose learned tolerance the operating
// point exceeds can escalate to a stronger code (ecc_escalation_ladder)
// instead of relaxing its placement threshold.
//
// Registered schemes:
//  * None    — no protection (t=0, d=0); the unprotected pipeline.
//  * Parity  — one parity bit per codeword, detect-only (t=0, d=1).
//  * Secded  — the classic Hamming(72,64): 7 Hamming bits plus an overall
//              parity bit per 64-bit word (t=1, d=2; tests/ecc_scheme_test.cpp
//              pins its encode and decode by digest over a seeded corpus).
//  * Hsiao   — odd-weight-column SECDED at any codeword size up to 4096
//              data bits, with the fewest check bits that fit (8 at 64, 9 at
//              128): every data column of H has odd weight >= 3, so any
//              double error has an even, hence non-column, syndrome — 2-bit
//              patterns can NEVER miscorrect (t=1, d=2, same overhead as
//              Hamming at 64 data bits).
//  * BchT2   — shortened binary BCH over GF(2^m) with designed distance 5
//              plus an overall parity bit (d_min >= 6): corrects any 2,
//              detects any 3 bit errors per codeword (t=2, d=3). Check bits
//              auto-size from the field (15 bits at d=64 up to 33 bits at
//              d=32768 — the large-codeword 512 B–4 KB mode, where the
//              relative storage overhead drops below 1%).
//
// Check bits are never configured: each kind sizes them from data_bits.
//
// Every scheme also carries a controller-side cost model: decode latency
// per codeword (fed into the dram::Controller access timeline by
// core::weight_stream_energy) and decode energy per codeword (the
// EnergyBreakdown::ecc_nj component), plus tolerable_raw_ber() — the raw
// bit-error rate the code absorbs while keeping the post-correction
// residual BER at a layer's learned tolerance.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "error/injector.hpp"  // WeightFlip, SanitizeRange, revert_flips

namespace sparkxd::error {

enum class EccKind : std::uint8_t {
  kNone = 0,
  kParity,
  kSecded,
  kHsiao,
  kBch,
};

/// Stable lower-case label of a kind: "off", "parity", "secded", "hsiao",
/// "bch".
[[nodiscard]] const char* to_string(EccKind kind) noexcept;

/// Pure-data ECC configuration (the RefreshPolicy pattern): what a Scenario
/// names, what PipelineConfig validates, what make_ecc_scheme constructs.
/// The check bits follow from (kind, data_bits): parity 1, secded 8, hsiao
/// the fewest that give enough odd-weight columns, bch 2m+1 for the
/// smallest field GF(2^m) that holds the codeword.
struct EccSpec {
  EccKind kind = EccKind::kNone;
  /// Data bits per codeword. Must be a positive multiple of 32 (whole FP32
  /// weights) up to 32768 (the 4 KB large-codeword mode); 64 is the classic
  /// per-word granularity of SECDED(72,64).
  std::size_t data_bits = 64;

  [[nodiscard]] bool enabled() const noexcept { return kind != EccKind::kNone; }

  /// Throws ContractViolation with a specific message on the first problem
  /// (bad data size, kind-specific limits).
  void validate() const;

  friend bool operator==(const EccSpec&, const EccSpec&) = default;
};

/// Scenario-name-safe label of a spec: "off", "parity", "secded", "hsiao",
/// "bch", with the data size appended when it is not the default 64
/// ("bch4096b").
[[nodiscard]] std::string ecc_label(const EccSpec& spec);

/// Outcome of decoding one codeword.
enum class EccStatus : std::uint8_t {
  kClean,      ///< no error observed
  kCorrected,  ///< <= t errors corrected; the codeword is fully restored
  kDetected,   ///< uncorrectable error flagged; the codeword is untouched
};

struct EccDecode {
  EccStatus status = EccStatus::kClean;
  unsigned bits_corrected = 0;  ///< codeword bits flipped back (data + check)
};

/// One error-correcting code over fixed-size codewords. Data and check bits
/// live in little-endian std::uint64_t arrays (data bit i = word i/64, bit
/// i%64 — the in-memory layout of FP32 weight words on this target; check
/// bits likewise). decode() repairs check bits along with data, so a
/// kCorrected/kClean codeword is a valid codeword afterwards.
class EccScheme {
 public:
  virtual ~EccScheme() = default;

  [[nodiscard]] virtual EccKind kind() const noexcept = 0;
  /// Human-readable "(n,k)" style name, e.g. "secded(72,64)".
  [[nodiscard]] virtual std::string name() const = 0;
  /// Guaranteed corrected error weight t (any pattern of <= t bit errors is
  /// fully corrected).
  [[nodiscard]] virtual unsigned correctable_bits() const noexcept = 0;

  /// Computes the check bits of `data` (data_words() words) into `check`
  /// (check_words() words; bits past check_bits() are cleared).
  virtual void encode(const std::uint64_t* data, std::uint64_t* check) const = 0;
  /// Checks (and within the t-guarantee corrects, in place) one codeword.
  virtual EccDecode decode(std::uint64_t* data,
                           std::uint64_t* check) const = 0;

  [[nodiscard]] std::size_t data_bits() const noexcept { return data_bits_; }
  [[nodiscard]] std::size_t check_bits() const noexcept { return check_bits_; }
  [[nodiscard]] std::size_t data_words() const noexcept {
    return (data_bits_ + 63) / 64;
  }
  [[nodiscard]] std::size_t check_words() const noexcept {
    return (check_bits_ + 63) / 64;
  }
  /// Redundant storage per stored data bit (check_bits / data_bits); the
  /// classic SECDED(72,64) is 0.125.
  [[nodiscard]] double storage_overhead() const noexcept {
    return static_cast<double>(check_bits_) / static_cast<double>(data_bits_);
  }

  /// Controller-side decode latency per fetched codeword, ns. Syndrome
  /// computation is an XOR tree (flat), but algebraic decoding (BCH Chien
  /// search) grows with the codeword.
  [[nodiscard]] double decode_latency_ns() const noexcept;
  /// Decode logic energy per fetched codeword, nJ — on the fixed logic
  /// rail, like the I/O term (does not scale with the DRAM array supply).
  [[nodiscard]] double decode_energy_nj() const noexcept;

  /// Largest raw module BER at which the post-correction residual BER still
  /// stays at `post_ber`: inverts the leading term of the residual rate
  /// (t+1) * C(n, t+1) * p^(t+1) / n of an (n, k) t-corrector under
  /// independent bit errors. Detect-only and unprotected codes pass
  /// `post_ber` through unchanged (detection does not restore bits).
  [[nodiscard]] double tolerable_raw_ber(double post_ber) const;

 protected:
  EccScheme(std::size_t data_bits, std::size_t check_bits)
      : data_bits_(data_bits), check_bits_(check_bits) {}

  std::size_t data_bits_;
  std::size_t check_bits_;
};

/// Constructs the scheme a (validated) spec describes. Throws
/// ContractViolation on an invalid spec.
[[nodiscard]] std::unique_ptr<EccScheme> make_ecc_scheme(const EccSpec& spec);

/// Escalation ladder of a base spec: the spec itself first, then strictly
/// stronger codes at the same codeword size (t=0 -> t=1 -> t=2), ending at
/// BCH. The per-layer assignment in the voltage sweep walks this ladder
/// until the code's tolerable_raw_ber covers the operating BER — weak
/// layers buy stronger codes instead of relaxing placement capacity. A
/// disabled spec never escalates (ladder = {spec}).
[[nodiscard]] std::vector<EccSpec> ecc_escalation_ladder(const EccSpec& spec);

// ---------------------------------------------------------------------------
// Buffer-level helpers over FP32 weight arrays. Codeword c covers the FP32
// words [c * data_bits/32, (c+1) * data_bits/32); the tail codeword is
// zero-padded. Check words of codeword c live at [c * check_words(), ...)
// of the check buffer.

/// Codewords needed to protect n_weights FP32 values.
[[nodiscard]] std::size_t ecc_codeword_count(const EccScheme& scheme,
                                             std::size_t n_weights);

/// FP32-word equivalent of the check storage for n_weights values (rounded
/// up to whole words) — what the check bits add to the layer's DRAM
/// placement and streamed traffic.
[[nodiscard]] std::size_t ecc_check_float_equiv(const EccScheme& scheme,
                                                std::size_t n_weights);

/// Aggregate results of scrubbing codewords.
struct EccScrubStats {
  std::size_t codewords = 0;       ///< codewords decoded
  std::size_t corrected = 0;       ///< codewords fully restored
  std::size_t detected = 0;        ///< codewords flagged uncorrectable
  std::size_t bits_corrected = 0;  ///< total bits flipped back

  EccScrubStats& operator+=(const EccScrubStats& o) noexcept {
    codewords += o.codewords;
    corrected += o.corrected;
    detected += o.detected;
    bits_corrected += o.bits_corrected;
    return *this;
  }
};

/// Encodes a clean weight buffer: check_words() words per codeword,
/// sequentially.
[[nodiscard]] std::vector<std::uint64_t> ecc_encode_buffer(
    const EccScheme& scheme, const std::vector<float>& weights);

/// Monte-Carlo hot-path scrub: decodes ONLY the codewords containing a word
/// recorded in flips[0..n_injected) — clean codewords decode clean by
/// construction, so the pass is O(corrupted codewords), not O(buffer).
/// Every word it modifies (corrections, and the load-time range clip
/// applied to words of codewords the code could NOT restore) is appended to
/// `flips` with its pre-modification value, so revert_flips(weights, flips)
/// still restores the buffer bit for bit. Corrected codewords return to
/// their clean values and are not clipped; any non-finite value a
/// beyond-guarantee miscorrection leaves behind goes through the clip like
/// other surviving corruption.
EccScrubStats ecc_scrub_codewords(const EccScheme& scheme,
                                  std::span<float> weights,
                                  const std::vector<std::uint64_t>& checks,
                                  std::vector<WeightFlip>& flips,
                                  std::size_t n_injected,
                                  const SanitizeRange& post_sanitize);

}  // namespace sparkxd::error
