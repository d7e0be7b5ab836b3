#pragma once
// Bit-error generation and injection into DRAM-resident data
// (paper §IV-B Steps 1-2 and §V "Error Generation and Injection").
//
// Given a *placement* (the DRAM column of every 32 B burst chunk, as
// produced by a mapping policy) the injector decides which stored bits are
// "weak cells"; a frozen table of them flips each one probabilistically on
// every read.
//
// Weak cells are deterministic per (seed, physical cell): each cell has a
// fixed weakness score in [0, 1) derived by hashing its physical coordinate;
// the cell is weak at BER b when  score < 2 * b * m(cell), where m is the
// subarray / bitline / wordline weakness multiplier of the active error
// model and the factor 2 accounts for the weak-cell failure probability 0.5.
// Two properties follow, both physically motivated and both load-bearing:
//   * weak sets are NESTED across BER (a cell failing at 1e-5 still fails
//     at 1e-3) — exactly how reduced-voltage failures behave; and
//   * the SAME cells fail across training epochs, which is what lets
//     fault-aware training learn around them.
//
// When the spec's RetentionSpec is enabled (reduced-refresh operation, see
// error/retention.hpp) the enumeration additionally marks the cells whose
// hashed retention time falls short of the effective refresh window. Those
// candidates carry a negative score, so they are weak at EVERY injection
// BER — the two approximation axes (voltage and refresh) compose by simple
// union of their weak-cell sets, with retention taking precedence for cells
// weak under both. A retention-failed cell reads back its *discharged*
// level, which coincides with the stored value about half the time across
// true-/anti-cell layouts — the same 0.5 flip probability the voltage weak
// cells use, so both axes share one injection path.
//
// The module has three parts. WeakCellMap enumerates: it scores every cell
// of each distinct burst chunk once, up to the largest BER a run will ask
// for (concurrently across chunks — the enumeration is stateless hashing,
// see common/parallel; Model-1 draws each bitline multiplier once per
// distinct bitline run in the map, not once per bit). Because a cell's
// score does not depend on the BER, one map serves every placement and
// every operating point of a run. ErrorInjector selects: for one placement
// and one maximum BER it gathers its chunks' candidates from the map and
// freezes the prefix weak at one BER into a FrozenInjection.
// FrozenInjection flips: it decides which weak cells FLIP on one read and
// is the only flip loop, one Bernoulli draw per entry in table order.
// EDEN-style, an operating point is a fixed set of weak cells, so every
// caller freezes once per BER and injects through the table as often as
// it reads.
//
// The flip loop is representation-agnostic: weak cells are enumerated at
// byte granularity, so the same table corrupts FP32 weights (inject) and
// quantized int8 weights or any other byte payload (inject_bytes). It is
// also layer-agnostic: a deep SNN stack builds ONE injector per layer, each
// over that layer's (disjoint) placement with the SAME seed — the module
// has one weak-cell reality, hashed per physical cell, so per-layer
// injectors corrupt exactly the cells a whole-module injector would.
// core::CorruptionScratch owns the per-layer Rng stream discipline and the
// delta protocol (inject with a flip log, mirror, revert).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dram/geometry.hpp"
#include "error/error_model.hpp"
#include "error/subarray_profile.hpp"

namespace sparkxd::error {

/// DRAM addresses of the first column of each burst chunk; chunk c stores
/// the payload bytes [c*burst_bytes, (c+1)*burst_bytes).
using ChunkPlacement = std::vector<dram::Address>;

/// Weight-range sanitization applied after FP32 injection: corrupted values
/// are clamped into [lo, hi] and NaNs become lo. This is the load-time
/// range clipping EDEN-style deployments apply (see
/// core::kDefaultWeightClip); it keeps single-bit exponent flips meaningful
/// (large deviation) without propagating Inf/NaN.
struct SanitizeRange {
  float lo = 0.0f;
  float hi = 1.0f;
  /// When false, sanitization is a no-op: injection leaves the raw flipped
  /// bit pattern in place (NaN/Inf preserved). The ECC evaluation path
  /// needs this — the decoder must see exactly the stored bits; the range
  /// clip is applied afterwards, only to codewords the code could not
  /// restore (error::ecc_scrub_codewords).
  bool clamp = true;

  /// The no-clamp mode used for ECC-protected injection.
  [[nodiscard]] static constexpr SanitizeRange raw() noexcept {
    return {0.0f, 0.0f, false};
  }
};

/// Applies SanitizeRange to one corrupted weight (NaN -> lo, else clamp).
void sanitize_weight(float& w, const SanitizeRange& r) noexcept;

/// One recorded weight corruption: the flat FP32 word index and the value it
/// held *before* the flip (pre-sanitize). A sequence of WeightFlips is a
/// complete delta of an injection pass: reverting it restores the weight
/// array bit for bit, which replaces the full-snapshot copy the Monte-Carlo
/// trial loop used to pay per trial.
struct WeightFlip {
  std::uint32_t word = 0;  ///< flat index into the FP32 weight array
  float before = 0.0f;     ///< value of weights[word] before this flip
};

/// Reverts a recorded injection delta: walks `flips` in reverse and restores
/// each word's pre-flip value. Reverse order makes multi-flip words exact —
/// the earliest record of a word wins, restoring the pre-injection value.
void revert_flips(std::span<float> weights,
                  const std::vector<WeightFlip>& flips) noexcept;

/// Read-only injection plan frozen for one (injector, BER) pair: the prefix
/// of the injector's score-sorted candidate list that is weak at the frozen
/// BER, with each candidate's FP32 word index and bit-within-word
/// precomputed. Build it once (ErrorInjector::freeze) and share it const
/// across all Monte-Carlo trials, training epochs and sweep workers. Every
/// read draws one Bernoulli per entry, in entry order, so a table replays
/// the same flips for the same Rng state.
class FrozenInjection {
 public:
  struct Entry {
    std::uint32_t word;  ///< flat FP32 index holding the weak cell
    std::uint8_t bit;    ///< 0 (LSB) .. 31 within the little-endian word

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// One corrupted "read" of FP32 `weights` at the frozen BER. Each weak
  /// cell fails independently with probability 0.5 (Model-3: p1/p0 by
  /// stored value), and each flipped word goes through `sanitize`. When
  /// `flips` is non-null every flip is appended (the vector is NOT cleared)
  /// so the caller can revert the delta via revert_flips. Returns the
  /// number of flipped bits.
  std::size_t inject(std::span<float> weights, Rng& rng,
                     const SanitizeRange& sanitize = {},
                     std::vector<WeightFlip>* flips = nullptr) const;

  /// Raw-byte read (e.g. quantized int8 weights): flips weak bits of
  /// `data[0..n_bytes)` with the same entries, order and draws as inject.
  /// No sanitization — every byte pattern is a valid quantized value, which
  /// is precisely int8's robustness advantage.
  std::size_t inject_bytes(std::uint8_t* data, std::size_t n_bytes,
                           Rng& rng) const;

  /// Number of weak-cell candidates in the frozen table.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// The BER this table was frozen at.
  [[nodiscard]] double ber() const noexcept { return ber_; }

  // ---- Serialization access (serve::ServingArtifact). --------------------
  // A frozen table is part of a deployed operating point: the offline
  // pipeline freezes it once and the serving artifact carries it to the
  // long-lived server, so its full state round-trips through a file.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] double p0() const noexcept { return p0_; }
  [[nodiscard]] double p1() const noexcept { return p1_; }
  [[nodiscard]] bool data_dependent() const noexcept {
    return data_dependent_;
  }
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return n_payload_bytes_;
  }

  /// Reassembles a table from serialized parts; the result injects
  /// bit-identically to the table the parts were read from. Validates every
  /// entry (word within the payload, bit < 32) and the probabilities, so a
  /// corrupt artifact fails loudly at load time instead of at inject time.
  [[nodiscard]] static FrozenInjection from_parts(std::vector<Entry> entries,
                                                  double ber, double p0,
                                                  double p1,
                                                  bool data_dependent,
                                                  std::size_t n_payload_bytes);

 private:
  friend class ErrorInjector;

  std::vector<Entry> entries_;  ///< candidate-list prefix, original order
  double ber_ = 0.0;
  double p0_ = 0.0;      ///< Model-3 flip probability for a stored 0
  double p1_ = 0.0;      ///< Model-3 flip probability for a stored 1
  bool data_dependent_ = false;
  std::size_t n_payload_bytes_ = 0;
};

/// The weak-cell candidates of every burst chunk added to it, enumerated
/// once per distinct chunk at BERs up to `max_ber` (the map's cut-off). A
/// chunk is keyed by the linear address of its first byte, so chunks that
/// start off the burst grid or overlap another chunk are separate entries
/// with exactly the cells their own start implies. Every bit of the burst
/// is scored, so any payload that ends inside a chunk finds its cells.
///
/// The map refers to `profile` and must not outlive it. Build it once per
/// run at the largest BER the run needs, add every placement the run will
/// inject through, then share it const across the injectors built from it.
class WeakCellMap {
 public:
  /// One weak-cell candidate of a chunk: bit `bit` of the burst (payload
  /// byte bit/8 of the chunk, bit bit%8 within it). Weak at BER b iff
  /// score < 2*b; retention failures carry a negative score.
  struct Candidate {
    double score;
    std::uint32_t bit;
  };

  WeakCellMap(const dram::Geometry& geometry, const SubarrayProfile& profile,
              const ErrorModelSpec& spec, std::uint64_t seed, double max_ber);

  /// Enumerates the chunks of `placement` that the map does not hold yet;
  /// chunks already present are not scored again.
  void add(std::span<const dram::Address> placement);

  /// Candidates of each chunk of `placement` (in placement order; each
  /// list in bit order), valid until the next add(). Throws
  /// ContractViolation when a chunk was never added.
  [[nodiscard]] std::vector<std::span<const Candidate>> chunks(
      std::span<const dram::Address> placement) const;

  [[nodiscard]] const dram::Geometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] const ErrorModelSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double max_ber() const noexcept { return max_ber_; }
  /// Number of distinct chunks enumerated.
  [[nodiscard]] std::size_t size() const noexcept {
    return chunk_index_.size();
  }

 private:
  /// (key, slot) pairs sorted by key; slot indexes a per-entry table.
  using Index = std::vector<std::pair<std::uint64_t, std::size_t>>;

  dram::Geometry geometry_;
  const SubarrayProfile* profile_;
  ErrorModelSpec spec_;
  std::uint64_t seed_;
  double max_ber_;

  Index chunk_index_;  ///< linear start address -> chunk slot
  /// CSR offsets: chunk slot s owns candidates_[offsets_[s], offsets_[s+1]).
  std::vector<std::size_t> offsets_{0};
  std::vector<Candidate> candidates_;  ///< per chunk, in bit order
  Index run_index_;                    ///< Model-1 bitline run -> run slot
  std::vector<double> run_mult_;  ///< burst_bytes*8 multipliers per run slot
};

class ErrorInjector {
 public:
  /// Selects the weak-cell candidates of `n_payload_bytes` bytes laid out
  /// through `placement` at BERs up to `max_ber` (<= the map's cut-off)
  /// from a map that holds every chunk the payload reaches. The last chunk
  /// may be partially used.
  ErrorInjector(const WeakCellMap& map, const ChunkPlacement& placement,
                std::size_t n_payload_bytes, double max_ber);

  /// Standalone build: enumerates a map over `placement` at `max_ber` and
  /// selects from it.
  ErrorInjector(const dram::Geometry& geometry,
                const SubarrayProfile& profile, const ErrorModelSpec& spec,
                ChunkPlacement placement, std::size_t n_payload_bytes,
                std::uint64_t seed, double max_ber);

  /// Convenience: payload = n_weights FP32 values.
  static ErrorInjector for_weights(const dram::Geometry& geometry,
                                   const SubarrayProfile& profile,
                                   const ErrorModelSpec& spec,
                                   ChunkPlacement placement,
                                   std::size_t n_weights, std::uint64_t seed,
                                   double max_ber);

  /// Freezes the candidate-list prefix weak at `ber` (<= max_ber) into a
  /// shareable read-only injection plan; see FrozenInjection.
  [[nodiscard]] FrozenInjection freeze(double ber) const;

  /// Number of weak-cell candidates enumerated (at max_ber), including
  /// retention failures.
  [[nodiscard]] std::size_t candidate_count() const noexcept {
    return candidates_.size();
  }

  /// Number of candidates that are retention failures (spec.retention):
  /// cells whose retention time is shorter than the effective refresh
  /// window. These are weak at EVERY injection BER, independent of the
  /// voltage axis.
  [[nodiscard]] std::size_t retention_candidate_count() const noexcept {
    return retention_candidates_;
  }

  /// Expected number of bit flips per injection at `ber`.
  [[nodiscard]] double expected_flips(double ber) const;

  [[nodiscard]] double max_ber() const noexcept { return max_ber_; }
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return n_payload_bytes_;
  }

 private:
  struct Candidate {
    std::uint32_t byte_index;  ///< payload byte holding the weak cell
    std::uint8_t bit;          ///< 0 (LSB) .. 7 within the byte
    double score;              ///< weak at BER b iff score < 2*b
  };

  std::vector<Candidate> candidates_;  ///< sorted ascending by score
  std::size_t retention_candidates_ = 0;
  double max_ber_;
  std::size_t n_payload_bytes_;
  ErrorModelSpec spec_;
};

}  // namespace sparkxd::error
