#include "common/rng.hpp"

#include <cmath>

namespace sparkxd {

// splitmix64 / hash_combine / next_u64 / uniform / bernoulli are defined
// inline in rng.hpp — the evaluation hot paths make millions of draws and
// must not pay a cross-TU call per draw.

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  // Mix the full current state with the stream id; do not advance *this.
  std::uint64_t h = stream_id;
  for (const auto w : state_) h = hash_combine(h, w);
  return Rng(h);
}

double Rng::uniform(double lo, double hi) {
  SPARKXD_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SPARKXD_REQUIRE(lo <= hi, "uniform_int(lo, hi) needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return lo + static_cast<std::int64_t>(x % span);
}

std::size_t Rng::index(std::size_t n) {
  SPARKXD_REQUIRE(n > 0, "index(n) needs n > 0");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::normal() noexcept {
  // Box–Muller; guard against log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::normal(double mean, double sigma) {
  SPARKXD_REQUIRE(sigma >= 0.0, "normal sigma must be >= 0");
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

}  // namespace sparkxd
