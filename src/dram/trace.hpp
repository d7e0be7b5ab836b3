#pragma once
// Access traces and their statistics — the interface between workload
// generation (src/mapping TraceGenerator), the controller simulation, and
// the energy model ("DRAM access traces & statistics" in the paper's Fig. 10
// tool flow). One TraceStats describes one controller run under one refresh
// cadence: `refreshes` counts that cadence's REF commands, and the energy
// model decides how much of the module each REF is charged for.

#include <cstdint>
#include <vector>

#include "dram/geometry.hpp"

namespace sparkxd::dram {

enum class AccessType : std::uint8_t { kRead, kWrite };

/// One burst access: the address identifies the first column of a BL8 burst.
struct Access {
  Address addr;
  AccessType type = AccessType::kRead;
};

using AccessTrace = std::vector<Access>;

/// Row-buffer outcome of a single access (paper §I-B / §II-B1).
enum class RowBufferOutcome : std::uint8_t {
  kHit,      ///< requested row already in the row buffer
  kMiss,     ///< bank idle: ACT needed
  kConflict  ///< another row open: PRE + ACT needed
};

/// Per-access command-issue instants recorded by Controller::run when a
/// timeline sink is supplied. `pre_ns`/`act_ns` are negative when the access
/// needed no PRE/ACT (hits, and misses need no PRE). The property tests use
/// these to assert the controller's timing invariants (monotone completion,
/// no command inside a refresh window) without re-deriving the schedule.
struct AccessTiming {
  RowBufferOutcome outcome = RowBufferOutcome::kMiss;
  double pre_ns = -1.0;         ///< PRE issue time (conflicts only)
  double act_ns = -1.0;         ///< ACT issue time (misses and conflicts)
  double cmd_ns = 0.0;          ///< RD/WR column-command issue time
  double data_start_ns = 0.0;   ///< first data beat on the bus
  double data_end_ns = 0.0;     ///< burst completion
};

/// Aggregate statistics produced by the controller for one trace.
struct TraceStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t activates = 0;   ///< ACT commands issued
  std::uint64_t precharges = 0;  ///< PRE commands issued
  std::uint64_t reads = 0;       ///< RD bursts
  std::uint64_t writes = 0;      ///< WR bursts
  std::uint64_t refreshes = 0;   ///< all-bank REF commands within the makespan
  double total_time_ns = 0.0;    ///< makespan of the trace

  [[nodiscard]] double hit_rate() const noexcept {
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  [[nodiscard]] double bytes_per_ns(std::uint64_t burst_bytes) const noexcept {
    return total_time_ns > 0.0
               ? static_cast<double>(accesses * burst_bytes) / total_time_ns
               : 0.0;
  }
};

}  // namespace sparkxd::dram
