#include "common/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/stats.hpp"

namespace sparkxd {

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (!s || !*s) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return end != s && std::isfinite(v) ? v : fallback;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* s = std::getenv(name);
  if (!s || !*s) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  return end != s ? v : fallback;
}

double workload_scale() {
  return clamp(env_double("SPARKXD_SCALE", 1.0), 0.05, 100.0);
}

std::uint64_t experiment_seed() {
  return static_cast<std::uint64_t>(env_int("SPARKXD_SEED", 42));
}

std::size_t thread_count() {
  const auto fallback = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  const std::int64_t v = env_int("SPARKXD_THREADS", fallback);
  return static_cast<std::size_t>(std::clamp<std::int64_t>(
      v, 1, static_cast<std::int64_t>(kMaxThreads)));
}

std::size_t scaled(std::size_t base, std::size_t lo) {
  const double v = std::round(static_cast<double>(base) * workload_scale());
  const auto n = static_cast<std::size_t>(v < 0 ? 0 : v);
  return n < lo ? lo : n;
}

}  // namespace sparkxd
