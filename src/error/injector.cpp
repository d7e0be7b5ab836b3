#include "error/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sparkxd::error {

const char* to_string(ErrorModelKind k) noexcept {
  switch (k) {
    case ErrorModelKind::kModel0Uniform:
      return "Model-0 (uniform)";
    case ErrorModelKind::kModel1Bitline:
      return "Model-1 (bitline)";
    case ErrorModelKind::kModel2Wordline:
      return "Model-2 (wordline)";
    case ErrorModelKind::kModel3DataDependent:
      return "Model-3 (data-dependent)";
  }
  return "unknown";
}

namespace {

/// Uniform [0,1) double from a cell coordinate, deterministic per seed.
double cell_score(std::uint64_t seed, std::uint64_t cell) noexcept {
  std::uint64_t s = sparkxd::hash_combine(seed, cell);
  return static_cast<double>(sparkxd::splitmix64(s) >> 11) * 0x1.0p-53;
}

/// Deterministic mean-1 lognormal multiplier for a stripe (bitline or
/// wordline) identified by `id`.
double stripe_multiplier(std::uint64_t seed, std::uint64_t id, double sigma) {
  Rng rng(sparkxd::hash_combine(seed, id));
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

}  // namespace

ErrorInjector::ErrorInjector(const dram::Geometry& geometry,
                             const SubarrayProfile& profile,
                             const ErrorModelSpec& spec,
                             ChunkPlacement placement,
                             std::size_t n_payload_bytes, std::uint64_t seed,
                             double max_ber)
    : max_ber_(max_ber), n_payload_bytes_(n_payload_bytes), spec_(spec) {
  SPARKXD_REQUIRE(max_ber >= 0.0 && max_ber <= 0.5,
                  "max BER outside the modelled range");
  SPARKXD_REQUIRE(std::uint64_t{n_payload_bytes} <= std::uint64_t{1} << 32,
                  "payload over 4 GiB: candidate byte indices are 32-bit");
  const std::size_t chunk_bytes = geometry.burst_bytes();
  SPARKXD_REQUIRE(placement.size() * chunk_bytes >= n_payload_bytes,
                  "placement does not cover the payload");
  SPARKXD_REQUIRE(spec.p0 >= 0.0 && spec.p0 <= 1.0 && spec.p1 >= 0.0 &&
                      spec.p1 <= 1.0,
                  "Model-3 flip probabilities must be probabilities");
  spec.retention.validate();
  const bool retention_on = spec.retention.enabled;
  if (n_payload_bytes == 0 || (max_ber == 0.0 && !retention_on)) return;

  // Stripe multipliers (Model-1 / Model-2) come from a deterministic hash of
  // the flat stripe id (the index a full `n_banks x bitlines` /
  // `n_banks x rows` table would use), so only stripes the payload touches
  // are drawn: one wordline per chunk, and each bitline once per distinct
  // bitline run (below).
  const std::uint64_t bitline_count =
      std::uint64_t{geometry.columns_per_row} * geometry.column_bytes * 8;
  const std::uint64_t bitline_seed = hash_combine(seed, 0xB17ULL);
  const std::uint64_t wordline_seed = hash_combine(seed, 0x30BDULL);

  const std::uint64_t cell_seed = hash_combine(seed, 0xCE11ULL);
  const std::uint64_t retention_seed = hash_combine(seed, 0x4E7E417ULL);
  const double threshold = 2.0 * max_ber;
  const std::uint32_t column_bits = geometry.column_bytes * 8;

  const std::size_t n_chunks = std::min(
      placement.size(), (n_payload_bytes + chunk_bytes - 1) / chunk_bytes);

  // Model-1 bitline memo. A chunk's bitlines are one contiguous run of
  // chunk_bytes*8 ids starting at its column's first bitline, and chunks in
  // different rows of a bank reuse the same runs; drawing each distinct
  // run's lognormals once replaces one draw per payload bit.
  const std::size_t run_bits = chunk_bytes * 8;
  std::vector<std::uint64_t> chunk_run;
  std::vector<double> run_mult;
  if (spec.kind == ErrorModelKind::kModel1Bitline) {
    chunk_run.resize(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c)
      chunk_run[c] = bank_id(geometry, placement[c]) * bitline_count +
                     std::uint64_t{placement[c].column} * column_bits;
    std::vector<std::uint64_t> runs = chunk_run;
    std::sort(runs.begin(), runs.end());
    runs.erase(std::unique(runs.begin(), runs.end()), runs.end());
    for (auto& r : chunk_run)
      r = static_cast<std::uint64_t>(
          std::lower_bound(runs.begin(), runs.end(), r) - runs.begin());
    run_mult.resize(runs.size() * run_bits);
    parallel_for_chunks(runs.size(), [&](std::size_t begin, std::size_t end,
                                         std::size_t) {
      for (std::size_t r = begin; r < end; ++r)
        for (std::size_t k = 0; k < run_bits; ++k)
          run_mult[r * run_bits + k] = stripe_multiplier(
              bitline_seed, runs[r] + k, spec.stripe_sigma);
    });
  }

  // Candidate enumeration is pure per chunk (stateless hashes, no shared
  // Rng), so chunks are scanned concurrently into per-range buffers;
  // concatenating the buffers in range order restores ascending chunk order
  // regardless of the thread count.
  const std::size_t n_parts = parallel_chunk_count(n_chunks);
  std::vector<std::vector<Candidate>> parts(n_parts);
  const auto enumerate = [&](std::size_t chunk_begin,
                             std::size_t chunk_end, std::size_t slot) {
    std::vector<Candidate>& out = parts[slot];
    for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
      const std::size_t first_byte = c * chunk_bytes;
      const std::size_t last_byte =
          std::min(first_byte + chunk_bytes, n_payload_bytes);
      const dram::Address& addr = placement[c];
      const std::uint64_t sub_id = subarray_id(geometry, addr);
      // Cell coordinates advance linearly from the chunk's first cell, so
      // one check of the last column the payload reaches rejects a chunk
      // that overruns its row.
      dram::Address last_column = addr;
      last_column.column += static_cast<std::uint32_t>(
          (last_byte - first_byte - 1) / geometry.column_bytes);
      dram::check_address(geometry, last_column);
      const std::uint64_t first_cell = encode_linear(geometry, addr) * 8;
      const double* bitline_mult =
          run_mult.empty() ? nullptr
                           : run_mult.data() + chunk_run[c] * run_bits;
      const double sub_weak = profile.weakness(sub_id);
      // A chunk lives in one subarray, so its retention-failure probability
      // is a single per-chunk constant.
      const double p_retention =
          retention_on ? retention_fail_probability(spec.retention, sub_weak)
                       : 0.0;
      const std::uint64_t bank = bank_id(geometry, addr);
      const std::uint32_t brow = bank_row(geometry, addr);
      // A chunk lives in one row, so its wordline multiplier is one stripe.
      const double wordline_mult =
          spec.kind == ErrorModelKind::kModel2Wordline
              ? stripe_multiplier(wordline_seed,
                                  bank * geometry.rows_per_bank() + brow,
                                  spec.stripe_sigma)
              : 1.0;

      for (std::size_t b = first_byte; b < last_byte; ++b) {
        for (std::uint32_t bit = 0; bit < 8; ++bit) {
          // Bit k of the chunk: cell first_cell + k, bitline run entry k.
          const std::size_t k = (b - first_byte) * 8 + bit;
          const std::uint64_t cell = first_cell + k;
          // Retention failure takes precedence: a cell that leaks past the
          // effective refresh window is weak regardless of voltage, and
          // must not also appear as a voltage candidate (a duplicate would
          // let two flips cancel).
          if (retention_on &&
              cell_score(retention_seed, cell) < p_retention) {
            out.push_back({static_cast<std::uint32_t>(b),
                           static_cast<std::uint8_t>(bit), kRetentionScore});
            continue;
          }
          // Per-cell weakness multiplier under the active model.
          double m = sub_weak;
          switch (spec.kind) {
            case ErrorModelKind::kModel0Uniform:
            case ErrorModelKind::kModel3DataDependent:
              break;  // uniform within the subarray
            case ErrorModelKind::kModel1Bitline:
              m *= bitline_mult[k];
              break;
            case ErrorModelKind::kModel2Wordline:
              m *= wordline_mult;
              break;
          }
          if (m <= 0.0) continue;
          const double score = cell_score(cell_seed, cell) / m;
          if (score < threshold)
            out.push_back({static_cast<std::uint32_t>(b),
                           static_cast<std::uint8_t>(bit), score});
        }
      }
    }
  };
  // Pass n_parts explicitly: the chunk count must match the buffer sizing
  // above even if the thread knob changes between the two reads.
  parallel_for_chunks(n_chunks, enumerate, n_parts);
  for (const auto& part : parts)
    candidates_.insert(candidates_.end(), part.begin(), part.end());
  // Sort by score so injection at lower BERs touches a stable prefix; break
  // score ties by cell position so the order is fully specified.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.byte_index != b.byte_index
                         ? a.byte_index < b.byte_index
                         : a.bit < b.bit;
            });
  // Retention candidates carry a negative score, so after the sort they are
  // exactly the leading run.
  while (retention_candidates_ < candidates_.size() &&
         candidates_[retention_candidates_].score < 0.0)
    ++retention_candidates_;
}

ErrorInjector ErrorInjector::for_weights(const dram::Geometry& geometry,
                                         const SubarrayProfile& profile,
                                         const ErrorModelSpec& spec,
                                         ChunkPlacement placement,
                                         std::size_t n_weights,
                                         std::uint64_t seed, double max_ber) {
  return ErrorInjector(geometry, profile, spec, std::move(placement),
                       n_weights * sizeof(float), seed, max_ber);
}

void sanitize_weight(float& w, const SanitizeRange& r) noexcept {
  if (!r.clamp) return;
  if (std::isnan(w)) {
    w = r.lo;
    return;
  }
  w = std::clamp(w, r.lo, r.hi);
}

void revert_flips(std::span<float> weights,
                  const std::vector<WeightFlip>& flips) noexcept {
  // Reverse order: when one word was flipped more than once, the first
  // record (written last here) carries the pre-injection value.
  for (auto it = flips.rbegin(); it != flips.rend(); ++it)
    weights[it->word] = it->before;
}

FrozenInjection ErrorInjector::freeze(double ber) const {
  SPARKXD_REQUIRE(ber <= max_ber_ + 1e-15,
                  "frozen BER exceeds the enumerated maximum");
  FrozenInjection f;
  f.ber_ = ber;
  f.p0_ = spec_.p0;
  f.p1_ = spec_.p1;
  f.data_dependent_ = spec_.kind == ErrorModelKind::kModel3DataDependent;
  f.n_payload_bytes_ = n_payload_bytes_;
  const double threshold = 2.0 * ber;
  for (const auto& c : candidates_) {
    if (c.score >= threshold) break;  // sorted: all further are not weak
    f.entries_.push_back(
        {static_cast<std::uint32_t>(c.byte_index / sizeof(float)),
         static_cast<std::uint8_t>((c.byte_index % sizeof(float)) * 8 +
                                   c.bit)});
  }
  return f;
}

FrozenInjection FrozenInjection::from_parts(std::vector<Entry> entries,
                                            double ber, double p0, double p1,
                                            bool data_dependent,
                                            std::size_t n_payload_bytes) {
  SPARKXD_REQUIRE(std::isfinite(ber) && ber >= 0.0 && ber < 1.0,
                  "frozen BER must lie in [0, 1)");
  SPARKXD_REQUIRE(std::isfinite(p0) && p0 >= 0.0 && p0 <= 1.0 &&
                      std::isfinite(p1) && p1 >= 0.0 && p1 <= 1.0,
                  "flip probabilities must lie in [0, 1]");
  const std::size_t n_words = n_payload_bytes / sizeof(float);
  for (const auto& e : entries) {
    SPARKXD_REQUIRE(e.word < n_words,
                    "frozen entry addresses a word past the payload");
    SPARKXD_REQUIRE(e.bit < 32, "frozen entry bit index must be < 32");
  }
  FrozenInjection f;
  f.entries_ = std::move(entries);
  f.ber_ = ber;
  f.p0_ = p0;
  f.p1_ = p1;
  f.data_dependent_ = data_dependent;
  f.n_payload_bytes_ = n_payload_bytes;
  return f;
}

std::size_t FrozenInjection::inject(std::span<float> weights, Rng& rng,
                                    const SanitizeRange& sanitize,
                                    std::vector<WeightFlip>* flips) const {
  SPARKXD_REQUIRE(weights.size() * sizeof(float) >= n_payload_bytes_,
                  "weight array smaller than the mapped payload");
  std::size_t n_flips = 0;
  for (const auto& e : entries_) {
    float& w = weights[e.word];
    double p = kWeakCellFailProb;
    if (data_dependent_)
      p = test_bit(float_to_bits(w), e.bit) ? p1_ : p0_;
    if (!rng.bernoulli(p)) continue;
    if (flips != nullptr) flips->push_back({e.word, w});
    w = flip_float_bit(w, e.bit);
    sanitize_weight(w, sanitize);
    ++n_flips;
  }
  return n_flips;
}

std::size_t FrozenInjection::inject_bytes(std::uint8_t* data,
                                          std::size_t n_bytes,
                                          Rng& rng) const {
  SPARKXD_REQUIRE(n_bytes >= n_payload_bytes_,
                  "byte array smaller than the mapped payload");
  std::size_t n_flips = 0;
  for (const auto& e : entries_) {
    // Little-endian: bit k of word w lives in byte 4w + k/8, bit k%8.
    std::uint8_t& byte = data[std::size_t{e.word} * sizeof(float) + e.bit / 8];
    const unsigned bit = e.bit % 8u;
    double p = kWeakCellFailProb;
    if (data_dependent_) p = ((byte >> bit) & 1u) ? p1_ : p0_;
    if (!rng.bernoulli(p)) continue;
    byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
    ++n_flips;
  }
  return n_flips;
}

double ErrorInjector::expected_flips(double ber) const {
  const double threshold = 2.0 * ber;
  double e = 0.0;
  for (const auto& c : candidates_) {
    if (c.score >= threshold) break;
    e += spec_.kind == ErrorModelKind::kModel3DataDependent
             ? 0.5 * (spec_.p0 + spec_.p1)
             : kWeakCellFailProb;
  }
  return e;
}

}  // namespace sparkxd::error
