#include "dram/controller.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace sparkxd::dram {

const char* to_string(RefreshMode m) noexcept {
  switch (m) {
    case RefreshMode::kDisabled:
      return "disabled";
    case RefreshMode::kNominal:
      return "nominal";
    case RefreshMode::kReduced:
      return "reduced";
  }
  return "unknown";
}

Controller::Controller(const Geometry& geometry, const TimingParams& timing,
                       bool subarray_level_parallelism, RefreshPolicy refresh)
    : geom_(geometry),
      timing_(timing),
      salp_(subarray_level_parallelism),
      refresh_(refresh) {
  geom_.validate();
  refresh_.validate(timing_);
  if (refresh_.simulated()) refi_eff_ns_ = refresh_.effective_refi_ns(timing_);
  const std::size_t n_banks = geom_.channels * geom_.ranks_per_channel *
                              geom_.chips_per_rank * geom_.banks_per_chip;
  banks_.resize(salp_ ? n_banks * geom_.subarrays_per_bank : n_banks);
}

std::size_t Controller::buffer_index(const Address& a) const {
  const auto bank = bank_id(geom_, a);
  return salp_ ? bank * geom_.subarrays_per_bank + a.subarray : bank;
}

void Controller::reset_state() {
  for (auto& b : banks_) b = BankState{};
  bus_ready_ns_ = 0.0;
  last_act_ns_ = -1.0e18;
}

RowBufferOutcome Controller::classify(const Access& access) const {
  const auto& bank = banks_[buffer_index(access.addr)];
  if (!bank.open) return RowBufferOutcome::kMiss;
  return bank.open_row == bank_row(geom_, access.addr)
             ? RowBufferOutcome::kHit
             : RowBufferOutcome::kConflict;
}

double Controller::next_outside_refresh(double t_ns) const {
  if (refi_eff_ns_ <= 0.0) return t_ns;
  double k = std::floor(t_ns / refi_eff_ns_);
  // An instant exactly on a window boundary ties with the REF that starts
  // there; the REF wins. Compare against the *product* — the quotient above
  // may round to just under the integer, which would otherwise let a command
  // issue at the very instant REF k+1 begins.
  if (t_ns >= (k + 1.0) * refi_eff_ns_) k += 1.0;
  if (k < 1.0) return t_ns;  // first REF fires at tREFI_eff
  const double window_start = k * refi_eff_ns_;
  // tRFC < tREFI_eff (validated), so the pushed instant cannot land inside
  // the next window.
  return t_ns < window_start + timing_.t_rfc ? window_start + timing_.t_rfc
                                             : t_ns;
}

TraceStats Controller::run(const AccessTrace& trace,
                           double arrival_interval_ns,
                           std::vector<AccessTiming>* timeline) {
  SPARKXD_REQUIRE(arrival_interval_ns >= 0.0,
                  "arrival interval must be non-negative");
  reset_state();
  TraceStats stats;
  stats.accesses = trace.size();
  if (timeline != nullptr) {
    timeline->clear();
    timeline->reserve(trace.size());
  }
  double makespan = 0.0;
  std::size_t index = 0;

  for (const auto& access : trace) {
    check_address(geom_, access.addr);
    auto& bank = banks_[buffer_index(access.addr)];
    const auto row = bank_row(geom_, access.addr);
    const auto outcome = classify(access);
    const double arrival =
        arrival_interval_ns * static_cast<double>(index++);
    AccessTiming timing_row;
    timing_row.outcome = outcome;

    // When can the column (RD/WR) command issue to this bank?
    double cmd_ready = std::max(bank.ready_ns, arrival);
    switch (outcome) {
      case RowBufferOutcome::kHit:
        ++stats.hits;
        break;
      case RowBufferOutcome::kConflict: {
        ++stats.conflicts;
        // PRE may only issue tRAS after the open row's ACT — and never
        // inside a refresh window.
        const double pre_at = next_outside_refresh(
            std::max({bank.ready_ns, arrival, bank.act_ns + timing_.t_ras}));
        const double act_at = next_outside_refresh(
            std::max(pre_at + timing_.t_rp, last_act_ns_ + timing_.t_rrd));
        ++stats.precharges;
        ++stats.activates;
        bank.act_ns = act_at;
        last_act_ns_ = act_at;
        cmd_ready = act_at + timing_.t_rcd;
        timing_row.pre_ns = pre_at;
        timing_row.act_ns = act_at;
        break;
      }
      case RowBufferOutcome::kMiss: {
        ++stats.misses;
        const double act_at = next_outside_refresh(
            std::max({bank.ready_ns, arrival, last_act_ns_ + timing_.t_rrd}));
        ++stats.activates;
        bank.act_ns = act_at;
        last_act_ns_ = act_at;
        cmd_ready = act_at + timing_.t_rcd;
        timing_row.act_ns = act_at;
        break;
      }
    }
    bank.open = true;
    bank.open_row = row;

    // Data appears tCL after the column command; the shared data bus
    // serializes bursts, while PRE/ACT of *other* banks proceed under cover
    // of ongoing bursts — the multi-bank overlap of Fig. 9b. The column
    // command itself must also dodge refresh windows; the adjustment only
    // touches the schedule when the command actually lands in one, so the
    // refresh-free arithmetic stays bit-identical.
    double data_start = std::max(cmd_ready + timing_.t_cl, bus_ready_ns_);
    const double rd_at = next_outside_refresh(data_start - timing_.t_cl);
    if (rd_at > data_start - timing_.t_cl) data_start = rd_at + timing_.t_cl;
    const double data_end = data_start + timing_.t_burst;
    bus_ready_ns_ = data_end;
    // The next column command to this bank may issue one burst slot after
    // this one (tCCD ~= tBURST for BL8).
    bank.ready_ns = data_start - timing_.t_cl + timing_.t_burst;
    if (access.type == AccessType::kRead)
      ++stats.reads;
    else
      ++stats.writes;
    makespan = std::max(makespan, data_end);
    if (timeline != nullptr) {
      timing_row.cmd_ns = data_start - timing_.t_cl;
      timing_row.data_start_ns = data_start;
      timing_row.data_end_ns = data_end;
      timeline->push_back(timing_row);
    }
  }

  // Every still-open row is eventually precharged; account the commands (the
  // trailing tRP is not on the critical path of the data makespan).
  for (auto& b : banks_)
    if (b.open) ++stats.precharges;

  stats.total_time_ns = makespan;
  // All-bank REFs at k * tREFI_eff for k = 1 .. floor(makespan / tREFI_eff)
  // fell within the trace (the same counting the legacy makespan-based
  // refresh-energy estimate uses).
  if (refi_eff_ns_ > 0.0 && makespan > 0.0)
    stats.refreshes =
        static_cast<std::uint64_t>(std::floor(makespan / refi_eff_ns_));
  return stats;
}

}  // namespace sparkxd::dram
