#pragma once
// Deterministic pseudo-random number generation for the whole framework.
//
// Everything in SparkXD that is stochastic (dataset synthesis, Poisson spike
// coding, weak-cell placement, error injection, weight init) draws from this
// generator so that every experiment is reproducible from a single 64-bit seed.
//
// The engine is xoshiro256** (Blackman & Vigna) seeded through splitmix64;
// it is fast, has 256-bit state, and — unlike std::mt19937 — its output for a
// given seed is fully specified here, independent of the standard library.

#include <array>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace sparkxd {

// The primitives below (and the core draws next_u64 / uniform / bernoulli)
// are defined inline in this header: the evaluation hot paths — Poisson
// spike encoding, Monte-Carlo fault injection, per-sample stream forking —
// make millions of draws per trial, and a cross-TU call per draw is
// measurable. The arithmetic is unchanged, so every stream stays
// bit-identical to the out-of-line definitions.

/// splitmix64 step; used for seeding and for cheap stateless hashes.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of two values (for deriving per-entity substream seeds).
inline std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  // Feed both words through splitmix64 so even adjacent ids decorrelate.
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** engine with convenience distributions.
///
/// Distribution helpers are member functions (not std:: distributions) so the
/// produced sequences are identical across standard libraries and platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  /// Derives an independent substream, e.g. `rng.fork(neuron_index)`.
  /// Forking does not advance this generator's state.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

  /// Raw 64 uniform random bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1) with 53-bit resolution.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    SPARKXD_REQUIRE(p >= 0.0 && p <= 1.0,
                    "bernoulli probability out of [0,1]");
    return uniform() < p;
  }

  /// Standard normal via Box–Muller (no state caching; two draws per sample).
  double normal() noexcept;

  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace sparkxd
