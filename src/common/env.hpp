#pragma once
// Environment-variable knobs shared by benches and examples.
//
// SPARKXD_SCALE  — float multiplier (default 1.0) applied to training sample
//                  counts and spike-train lengths in the accuracy experiments.
//                  The default is sized for a single-core host; set 4.0 for a
//                  closer-to-paper run or 0.25 for a smoke run. Experiment
//                  *shapes* are stable across scales.
// SPARKXD_CSV_DIR — when set, each Table additionally writes <name>.csv there.
// SPARKXD_SEED   — global experiment seed (default 42).
// SPARKXD_THREADS — worker threads for common/parallel (default: hardware
//                  concurrency). 1 restores the fully serial path; results
//                  are bit-identical at every setting.

#include <cstdint>
#include <string>

namespace sparkxd {

/// Reads a double-valued env var, falling back to `fallback` when unset,
/// unparsable or not finite (nan, inf).
[[nodiscard]] double env_double(const char* name, double fallback);

/// Reads an integer env var, falling back to `fallback` when unset/bad.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// The global workload scale factor (SPARKXD_SCALE, default 1.0, clamped to
/// [0.05, 100]).
[[nodiscard]] double workload_scale();

/// The global experiment seed (SPARKXD_SEED, default 42).
[[nodiscard]] std::uint64_t experiment_seed();

/// Largest worker-thread count thread_count() returns.
inline constexpr std::size_t kMaxThreads = 256;

/// Worker-thread count for parallel_for (SPARKXD_THREADS, default
/// std::thread::hardware_concurrency(), clamped to [1, kMaxThreads]). Read
/// on every call, so tests may change the knob between runs.
[[nodiscard]] std::size_t thread_count();

/// max(lo, round(base * workload_scale())) — sizing helper for sample counts.
[[nodiscard]] std::size_t scaled(std::size_t base, std::size_t lo = 1);

}  // namespace sparkxd
