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

/// Score assigned to retention-failure candidates: below every BER
/// threshold, so they are weak at any injection BER (they sort to the
/// front of the candidate list).
constexpr double kRetentionScore = -1.0;

/// Number of leading placement chunks a payload of `n_payload_bytes` uses.
std::size_t chunks_reached(std::size_t placement_chunks,
                           std::size_t n_payload_bytes,
                           std::size_t chunk_bytes) {
  return std::min(placement_chunks,
                  (n_payload_bytes + chunk_bytes - 1) / chunk_bytes);
}

/// Lower bound of `key` in a sorted (key, slot) index. Placements mostly
/// walk ascending addresses, so `hint` (the previous lookup's result) and
/// the entry after it are tried before a binary search.
template <typename Index>
typename Index::const_iterator seek(const Index& index, std::uint64_t key,
                                    typename Index::const_iterator hint) {
  const auto is_bound = [&](typename Index::const_iterator p) {
    return (p == index.begin() || std::prev(p)->first < key) &&
           (p == index.end() || key <= p->first);
  };
  if (is_bound(hint)) return hint;
  if (hint != index.end() && is_bound(std::next(hint))) return std::next(hint);
  return std::lower_bound(
      index.begin(), index.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
}

/// Merges sorted, distinct `keys` (none already indexed) into `index`,
/// giving key i the slot first_slot + i.
template <typename Index>
void merge_index(Index& index, const std::vector<std::uint64_t>& keys,
                 std::size_t first_slot) {
  const std::size_t old_size = index.size();
  index.reserve(old_size + keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    index.emplace_back(keys[i], first_slot + i);
  std::inplace_merge(index.begin(),
                     index.begin() + static_cast<std::ptrdiff_t>(old_size),
                     index.end());
}

}  // namespace

WeakCellMap::WeakCellMap(const dram::Geometry& geometry,
                         const SubarrayProfile& profile,
                         const ErrorModelSpec& spec, std::uint64_t seed,
                         double max_ber)
    : geometry_(geometry),
      profile_(&profile),
      spec_(spec),
      seed_(seed),
      max_ber_(max_ber) {
  SPARKXD_REQUIRE(max_ber >= 0.0 && max_ber <= 0.5,
                  "max BER outside the modelled range");
  spec.retention.validate();
}

std::vector<std::span<const WeakCellMap::Candidate>> WeakCellMap::chunks(
    std::span<const dram::Address> placement) const {
  std::vector<std::span<const Candidate>> lists;
  lists.reserve(placement.size());
  auto it = chunk_index_.begin();
  for (const dram::Address& start : placement) {
    const std::uint64_t key = dram::encode_linear(geometry_, start);
    it = seek(chunk_index_, key, it);
    SPARKXD_REQUIRE(it != chunk_index_.end() && it->first == key,
                    "chunk is not in the weak-cell map");
    lists.emplace_back(candidates_.data() + offsets_[it->second],
                       candidates_.data() + offsets_[it->second + 1]);
  }
  return lists;
}

void WeakCellMap::add(std::span<const dram::Address> placement) {
  const dram::Geometry& g = geometry_;
  // The chunks not enumerated yet, each once, in key order: (key, index of
  // the chunk's start in `placement`).
  std::vector<std::pair<std::uint64_t, std::size_t>> fresh;
  fresh.reserve(placement.size());
  auto it = chunk_index_.cbegin();
  for (std::size_t c = 0; c < placement.size(); ++c) {
    const std::uint64_t key = dram::encode_linear(g, placement[c]);
    it = seek(chunk_index_, key, it);
    if (it == chunk_index_.end() || it->first != key)
      fresh.emplace_back(key, c);
  }
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(fresh.begin(), fresh.end(), by_key))
    std::sort(fresh.begin(), fresh.end(), by_key);
  fresh.erase(std::unique(fresh.begin(), fresh.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              fresh.end());
  if (fresh.empty()) return;

  // Stripe multipliers (Model-1 / Model-2) come from a deterministic hash of
  // the flat stripe id (the index a full `n_banks x bitlines` /
  // `n_banks x rows` table would use), so only stripes the map touches are
  // drawn: one wordline per chunk, and each bitline once per distinct
  // bitline run (below).
  const std::uint64_t bitline_count =
      std::uint64_t{g.columns_per_row} * g.column_bytes * 8;
  const std::uint64_t bitline_seed = hash_combine(seed_, 0xB17ULL);
  const std::uint64_t wordline_seed = hash_combine(seed_, 0x30BDULL);
  const std::uint64_t cell_seed = hash_combine(seed_, 0xCE11ULL);
  const std::uint64_t retention_seed = hash_combine(seed_, 0x4E7E417ULL);
  const std::uint32_t column_bits = g.column_bytes * 8;
  const auto run_bits = static_cast<std::uint32_t>(g.burst_bytes() * 8);
  const ErrorModelKind kind = spec_.kind;
  const bool model1 = kind == ErrorModelKind::kModel1Bitline;
  const auto run_of = [&](const dram::Address& a) {
    return bank_id(g, a) * bitline_count +
           std::uint64_t{a.column} * column_bits;
  };

  // Model-1 bitline memo. A chunk's bitlines are one contiguous run of
  // run_bits ids starting at its column's first bitline, and chunks in
  // different rows of a bank reuse the same runs; drawing each distinct
  // run's lognormals once per map replaces one draw per payload bit.
  if (model1) {
    std::vector<std::uint64_t> runs;
    for (const auto& f : fresh) {
      const std::uint64_t run = run_of(placement[f.second]);
      const auto at = seek(run_index_, run, run_index_.cbegin());
      if (at == run_index_.end() || at->first != run) runs.push_back(run);
    }
    std::sort(runs.begin(), runs.end());
    runs.erase(std::unique(runs.begin(), runs.end()), runs.end());
    const std::size_t first_slot = run_index_.size();
    run_mult_.resize((first_slot + runs.size()) * run_bits);
    parallel_for_chunks(runs.size(), [&](std::size_t begin, std::size_t end,
                                         std::size_t) {
      for (std::size_t r = begin; r < end; ++r)
        for (std::size_t k = 0; k < run_bits; ++k)
          run_mult_[(first_slot + r) * run_bits + k] = stripe_multiplier(
              bitline_seed, runs[r] + k, spec_.stripe_sigma);
    });
    merge_index(run_index_, runs, first_slot);
  }

  const bool retention_on = spec_.retention.enabled;
  const double threshold = 2.0 * max_ber_;
  // At a zero cut-off no voltage score (>= 0) can be weak: only retention
  // failures are enumerated.
  const bool voltage_on = threshold > 0.0;
  // The per-bit loop reads copies, not references: push_back may write
  // memory, so referenced locals would be reloaded on every bit.
  const auto enumerate_chunk = [&, cell_seed, retention_seed, threshold,
                                 retention_on, voltage_on, kind,
                                 run_bits](std::uint64_t key,
                                           const dram::Address& addr,
                                           std::vector<Candidate>& out) {
    const std::uint64_t first_cell = key * 8;
    const double* bitline_mult =
        model1 ? run_mult_.data() +
                     seek(run_index_, run_of(addr), run_index_.cbegin())
                             ->second *
                         run_bits
               : nullptr;
    const double sub_weak = profile_->weakness(subarray_id(g, addr));
    // A chunk lives in one subarray, so its retention-failure probability
    // is a single per-chunk constant.
    const double p_retention =
        retention_on ? retention_fail_probability(spec_.retention, sub_weak)
                     : 0.0;
    // A chunk lives in one row, so its wordline multiplier is one stripe.
    const double wordline_mult =
        kind == ErrorModelKind::kModel2Wordline
            ? stripe_multiplier(wordline_seed,
                                bank_id(g, addr) * g.rows_per_bank() +
                                    bank_row(g, addr),
                                spec_.stripe_sigma)
            : 1.0;
    if (!retention_on && !voltage_on) return;
    for (std::uint32_t k = 0; k < run_bits; ++k) {
      // Bit k of the chunk: cell first_cell + k, bitline run entry k.
      const std::uint64_t cell = first_cell + k;
      // Retention failure takes precedence: a cell that leaks past the
      // effective refresh window is weak regardless of voltage, and must
      // not also appear as a voltage candidate (a duplicate would let two
      // flips cancel).
      if (retention_on && cell_score(retention_seed, cell) < p_retention) {
        out.push_back({kRetentionScore, k});
        continue;
      }
      if (!voltage_on) continue;
      // Per-cell weakness multiplier under the active model.
      double m = sub_weak;
      switch (kind) {
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
      if (score < threshold) out.push_back({score, k});
    }
  };

  // Enumeration is pure per chunk (stateless hashes, no shared Rng), so
  // chunks are scanned concurrently into per-range buffers; concatenating
  // the buffers in range order restores key order regardless of the thread
  // count. Pass n_parts explicitly: the range count must match the buffer
  // sizing even if the thread knob changes between the two reads.
  const std::size_t n_parts = parallel_chunk_count(fresh.size());
  std::vector<std::vector<Candidate>> parts(n_parts);
  std::vector<std::size_t> counts(fresh.size());
  parallel_for_chunks(
      fresh.size(),
      [&](std::size_t begin, std::size_t end, std::size_t part) {
        std::vector<Candidate>& out = parts[part];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t before = out.size();
          enumerate_chunk(fresh[i].first, placement[fresh[i].second], out);
          counts[i] = out.size() - before;
        }
      },
      n_parts);
  std::size_t total = candidates_.size();
  for (const auto& part : parts) total += part.size();
  candidates_.reserve(total);
  for (const auto& part : parts)
    candidates_.insert(candidates_.end(), part.begin(), part.end());
  offsets_.reserve(offsets_.size() + counts.size());
  for (const std::size_t count : counts)
    offsets_.push_back(offsets_.back() + count);
  std::vector<std::uint64_t> keys(fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) keys[i] = fresh[i].first;
  merge_index(chunk_index_, keys, chunk_index_.size());
}

ErrorInjector::ErrorInjector(const WeakCellMap& map,
                             const ChunkPlacement& placement,
                             std::size_t n_payload_bytes, double max_ber)
    : max_ber_(max_ber), n_payload_bytes_(n_payload_bytes), spec_(map.spec()) {
  SPARKXD_REQUIRE(max_ber >= 0.0 && max_ber <= map.max_ber(),
                  "injector BER exceeds the weak-cell map's cut-off");
  SPARKXD_REQUIRE(std::uint64_t{n_payload_bytes} <= std::uint64_t{1} << 32,
                  "payload over 4 GiB: candidate byte indices are 32-bit");
  const dram::Geometry& geometry = map.geometry();
  const std::size_t chunk_bytes = geometry.burst_bytes();
  SPARKXD_REQUIRE(placement.size() * chunk_bytes >= n_payload_bytes,
                  "placement does not cover the payload");
  const double threshold = 2.0 * max_ber;
  const std::size_t n_chunks =
      chunks_reached(placement.size(), n_payload_bytes, chunk_bytes);
  const auto lists = map.chunks(std::span(placement).first(n_chunks));
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t first_byte = c * chunk_bytes;
    const std::size_t used_bytes =
        std::min(first_byte + chunk_bytes, n_payload_bytes) - first_byte;
    // Cell coordinates advance linearly from the chunk's first cell, so one
    // check of the last column the payload reaches rejects a chunk that
    // overruns its row.
    dram::Address last_column = placement[c];
    last_column.column +=
        static_cast<std::uint32_t>((used_bytes - 1) / geometry.column_bytes);
    dram::check_address(geometry, last_column);
    for (const auto& cand : lists[c]) {
      if (cand.bit >= used_bytes * 8) break;  // past a partial last chunk
      if (cand.score < threshold)
        candidates_.push_back(
            {static_cast<std::uint32_t>(first_byte + cand.bit / 8),
             static_cast<std::uint8_t>(cand.bit % 8), cand.score});
    }
  }
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

namespace {

/// A map over the chunks a standalone build's payload reaches.
WeakCellMap map_over(const dram::Geometry& geometry,
                     const SubarrayProfile& profile,
                     const ErrorModelSpec& spec,
                     const ChunkPlacement& placement,
                     std::size_t n_payload_bytes, std::uint64_t seed,
                     double max_ber) {
  WeakCellMap map(geometry, profile, spec, seed, max_ber);
  map.add(std::span(placement).first(chunks_reached(
      placement.size(), n_payload_bytes, geometry.burst_bytes())));
  return map;
}

}  // namespace

ErrorInjector::ErrorInjector(const dram::Geometry& geometry,
                             const SubarrayProfile& profile,
                             const ErrorModelSpec& spec,
                             ChunkPlacement placement,
                             std::size_t n_payload_bytes, std::uint64_t seed,
                             double max_ber)
    : ErrorInjector(map_over(geometry, profile, spec, placement,
                             n_payload_bytes, seed, max_ber),
                    placement, n_payload_bytes, max_ber) {}

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
