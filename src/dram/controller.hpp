#pragma once
// DRAM controller simulation.
//
// An open-row-policy controller with per-bank state and a shared data bus:
// each access is classified as a row-buffer hit, miss, or conflict
// (paper §II-B1); ACT/PRE latencies of different banks overlap with data
// bursts on the bus, which is how the multi-bank burst feature of Fig. 9b
// buys throughput. The simulation is event-free (one pass over the trace,
// per-bank ready times), which is exact for in-order single-request-stream
// workloads like streaming weight reads.
//
// Auto-refresh: a controller runs under exactly one RefreshPolicy. When it is
// simulated the controller schedules one all-bank REF every effective tREFI
// (tREFI x the policy's multiplier). REF k occupies the whole device for
// [k*tREFI_eff, k*tREFI_eff + tRFC): no ACT, PRE, or column command may
// issue inside that window, so every command instant is pushed past the
// window it lands in. Row buffers are restored
// after the REF (the controller is assumed to reopen the rows at no modelled
// cost) — a deliberate simplification that keeps row-buffer classification a
// pure function of the address stream, which classify() and the
// classify-vs-run differential tests rely on. The dominant timing cost of
// refresh — a tRFC stall every tREFI, ~1.7% of time at the nominal cadence —
// is captured exactly. A per-layer cadence (core::assign_layer_knobs) is one
// run per candidate policy; the power model then scales the REF charge by the
// share of module rows the layer occupies.

#include <cstdint>
#include <vector>

#include "dram/geometry.hpp"
#include "dram/timing.hpp"
#include "dram/trace.hpp"

namespace sparkxd::dram {

/// Simulates a trace and produces timing + row-buffer statistics.
class Controller {
 public:
  /// `subarray_level_parallelism` models the SALP-style architecture the
  /// paper's §IV-D references (Putra et al. [14]): each *subarray* keeps its
  /// own local row buffer, so switching rows across subarrays of one bank is
  /// a miss (ACT only) rather than a conflict (PRE + ACT). Commodity DRAM
  /// (the default, false) has one row buffer per bank.
  ///
  /// `refresh` defaults to RefreshPolicy::disabled(), which reproduces the
  /// refresh-free schedule bit for bit.
  Controller(const Geometry& geometry, const TimingParams& timing,
             bool subarray_level_parallelism = false,
             RefreshPolicy refresh = RefreshPolicy::disabled());

  /// Classifies and times every access in order. Resets state first, so each
  /// call simulates an independent trace (all banks initially idle).
  ///
  /// `arrival_interval_ns` models the consumer: request i arrives at
  /// i * interval (an accelerator consuming one burst per MAC-array pass).
  /// 0 = back-to-back (pure DRAM-limited streaming).
  ///
  /// When `timeline` is non-null it receives one AccessTiming per access,
  /// in trace order (the vector is cleared first).
  TraceStats run(const AccessTrace& trace, double arrival_interval_ns = 0.0,
                 std::vector<AccessTiming>* timeline = nullptr);

  /// Classifies a single access against current state *without* advancing
  /// time (used by tests and by the energy model's per-condition probes).
  [[nodiscard]] RowBufferOutcome classify(const Access& access) const;

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const TimingParams& timing() const noexcept { return timing_; }
  [[nodiscard]] const RefreshPolicy& refresh() const noexcept {
    return refresh_;
  }

  /// Earliest instant >= t_ns that does not fall inside a refresh window
  /// [k*tREFI_eff, k*tREFI_eff + tRFC), k >= 1. Identity when refresh is
  /// not simulated. An instant landing exactly on a window boundary belongs
  /// to the REF (REF wins the tie): the command is pushed behind the window
  /// regardless of how t_ns / tREFI_eff rounds. Exposed so tests can assert
  /// the window arithmetic.
  [[nodiscard]] double next_outside_refresh(double t_ns) const;

 private:
  struct BankState {
    bool open = false;
    std::uint32_t open_row = 0;  ///< bank-level row index when open
    double ready_ns = 0.0;       ///< earliest time the bank accepts a command
    double act_ns = -1.0e18;     ///< issue time of the last ACT (for tRAS)
  };

  void reset_state();
  [[nodiscard]] std::size_t buffer_index(const Address& a) const;

  Geometry geom_;
  TimingParams timing_;
  bool salp_ = false;
  RefreshPolicy refresh_;
  double refi_eff_ns_ = 0.0;      ///< effective tREFI (0 when not simulated)
  std::vector<BankState> banks_;  ///< one per row buffer (bank, or subarray)
  double bus_ready_ns_ = 0.0;
  double last_act_ns_ = -1.0e18;  ///< for tRRD across banks
};

}  // namespace sparkxd::dram
