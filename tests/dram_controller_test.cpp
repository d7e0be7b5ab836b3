// Tests for the DRAM controller: row-buffer classification, command counts,
// timing behaviour (tRCD/tRAS/tRP/tCL), multi-bank overlap, and arrival-rate
// limiting.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"

namespace sparkxd::dram {
namespace {

Geometry geom() { return Geometry::lpddr3_4gb(); }
TimingParams timing() { return TimingParams::lpddr3_1600(); }

Access rd(std::uint32_t bank, std::uint32_t subarray, std::uint32_t row,
          std::uint32_t column) {
  return {Address{0, 0, 0, bank, subarray, row, column}, AccessType::kRead};
}

TEST(Controller, FirstAccessIsMiss) {
  Controller c(geom(), timing());
  const auto stats = c.run({rd(0, 0, 0, 0)});
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.activates, 1u);
  EXPECT_EQ(stats.reads, 1u);
}

TEST(Controller, SameRowIsHit) {
  Controller c(geom(), timing());
  const auto stats = c.run({rd(0, 0, 0, 0), rd(0, 0, 0, 8), rd(0, 0, 0, 16)});
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.activates, 1u);
}

TEST(Controller, DifferentRowSameBankIsConflict) {
  Controller c(geom(), timing());
  const auto stats = c.run({rd(0, 0, 0, 0), rd(0, 0, 1, 0)});
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(stats.activates, 2u);
  // Conflict precharge + the trailing close of the open row.
  EXPECT_EQ(stats.precharges, 2u);
}

TEST(Controller, DifferentSubarraySameBankIsConflict) {
  // Subarrays share the bank-level row buffer in commodity DRAM.
  Controller c(geom(), timing());
  const auto stats = c.run({rd(0, 0, 0, 0), rd(0, 1, 0, 0)});
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(Controller, DifferentBanksAreIndependentMisses) {
  Controller c(geom(), timing());
  const auto stats = c.run({rd(0, 0, 0, 0), rd(1, 0, 0, 0), rd(0, 0, 0, 8)});
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);  // bank 0 row still open
}

TEST(Controller, SingleAccessLatencyIsRcdPlusClPlusBurst) {
  Controller c(geom(), timing());
  const auto t = timing();
  const auto stats = c.run({rd(0, 0, 0, 0)});
  EXPECT_NEAR(stats.total_time_ns, t.t_rcd + t.t_cl + t.t_burst, 1e-9);
}

TEST(Controller, StreamingHitsAreBusLimited) {
  Controller c(geom(), timing());
  const auto t = timing();
  AccessTrace trace;
  const std::uint32_t bursts = 32;
  for (std::uint32_t b = 0; b < bursts; ++b) trace.push_back(rd(0, 0, 0, b * 8));
  const auto stats = c.run(trace);
  // First access pays tRCD + tCL, the rest stream at one burst each.
  EXPECT_NEAR(stats.total_time_ns,
              t.t_rcd + t.t_cl + bursts * t.t_burst, 1e-6);
}

TEST(Controller, ConflictPaysRowCycle) {
  Controller c(geom(), timing());
  const auto t = timing();
  const auto stats = c.run({rd(0, 0, 0, 0), rd(0, 0, 1, 0)});
  // Second access: PRE waits for tRAS after the first ACT, then tRP + tRCD.
  const double expected =
      t.t_ras + t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
  EXPECT_NEAR(stats.total_time_ns, expected, 1e-6);
}

TEST(Controller, MultiBankOverlapHidesActivation) {
  // Interleaving rows across banks must be faster than cycling rows within
  // one bank — the Fig. 9b multi-bank burst benefit.
  Controller c(geom(), timing());
  AccessTrace same_bank, interleaved;
  const std::uint32_t rows = 8;
  const std::uint32_t bursts_per_row = 16;
  for (std::uint32_t r = 0; r < rows; ++r)
    for (std::uint32_t b = 0; b < bursts_per_row; ++b) {
      same_bank.push_back(rd(0, 0, r, b * 8));
      interleaved.push_back(rd(r % 8, 0, r / 8, b * 8));
    }
  const auto t_same = c.run(same_bank).total_time_ns;
  const auto t_inter = c.run(interleaved).total_time_ns;
  EXPECT_LT(t_inter, t_same * 0.95);
}

TEST(Controller, RrdSpacingBetweenActivates) {
  Controller c(geom(), timing());
  const auto t = timing();
  // Two immediate ACTs to different banks must be spaced by tRRD; the
  // second access's data lands tRRD later than a lone access... measure via
  // makespan of two misses to different banks.
  const auto stats = c.run({rd(0, 0, 0, 0), rd(1, 0, 0, 0)});
  const double lone = t.t_rcd + t.t_cl + t.t_burst;
  EXPECT_GE(stats.total_time_ns, lone + t.t_rrd - 1e-9);
}

TEST(Controller, ArrivalIntervalStretchesMakespan) {
  Controller c(geom(), timing());
  AccessTrace trace;
  for (std::uint32_t b = 0; b < 64; ++b) trace.push_back(rd(0, 0, 0, b * 8));
  const auto fast = c.run(trace, 0.0);
  const auto slow = c.run(trace, 20.0);
  EXPECT_GT(slow.total_time_ns, fast.total_time_ns);
  EXPECT_GE(slow.total_time_ns, 63 * 20.0);
}

TEST(Controller, ArrivalIntervalDoesNotChangeClassification) {
  Controller c(geom(), timing());
  AccessTrace trace{rd(0, 0, 0, 0), rd(0, 0, 0, 8), rd(0, 0, 1, 0)};
  const auto a = c.run(trace, 0.0);
  const auto b = c.run(trace, 50.0);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.conflicts, b.conflicts);
}

TEST(Controller, RunResetsStateBetweenCalls) {
  Controller c(geom(), timing());
  (void)c.run({rd(0, 0, 0, 0)});
  const auto stats = c.run({rd(0, 0, 0, 0)});
  EXPECT_EQ(stats.misses, 1u);  // bank idle again, not a hit
}

TEST(Controller, ClassifyMatchesRunOutcomes) {
  Controller c(geom(), timing());
  (void)c.run({rd(0, 0, 0, 0)});
  // After run(), bank 0 row 0 is open (classify uses current state).
  EXPECT_EQ(c.classify(rd(0, 0, 0, 8)), RowBufferOutcome::kHit);
  EXPECT_EQ(c.classify(rd(0, 0, 1, 0)), RowBufferOutcome::kConflict);
  EXPECT_EQ(c.classify(rd(1, 0, 0, 0)), RowBufferOutcome::kMiss);
}

TEST(Controller, StatsAccounting) {
  Controller c(geom(), timing());
  AccessTrace trace;
  for (std::uint32_t b = 0; b < 10; ++b) trace.push_back(rd(0, 0, 0, b * 8));
  trace.push_back({Address{0, 0, 0, 1, 0, 0, 0}, AccessType::kWrite});
  const auto stats = c.run(trace);
  EXPECT_EQ(stats.accesses, 11u);
  EXPECT_EQ(stats.reads, 10u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits + stats.misses + stats.conflicts, stats.accesses);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 9.0 / 11.0);
}

TEST(Controller, ThroughputHelper) {
  TraceStats s;
  s.accesses = 10;
  s.total_time_ns = 100.0;
  EXPECT_DOUBLE_EQ(s.bytes_per_ns(32), 3.2);
  TraceStats empty;
  EXPECT_EQ(empty.bytes_per_ns(32), 0.0);
  EXPECT_EQ(empty.hit_rate(), 0.0);
}

TEST(Controller, RejectsNegativeArrivalInterval) {
  Controller c(geom(), timing());
  EXPECT_THROW(c.run({rd(0, 0, 0, 0)}, -1.0), ContractViolation);
}

TEST(Controller, EmptyTrace) {
  Controller c(geom(), timing());
  const auto stats = c.run({});
  EXPECT_EQ(stats.accesses, 0u);
  EXPECT_EQ(stats.total_time_ns, 0.0);
}

class SlowTimings : public ::testing::TestWithParam<double> {};

TEST_P(SlowTimings, LongerTimingsNeverSpeedUpConflicts) {
  // Property: scaling tRCD/tRAS/tRP up (reduced voltage) can only increase
  // the makespan of a conflict-heavy trace.
  auto slow = timing();
  const double k = GetParam();
  slow.t_rcd *= k;
  slow.t_ras *= k;
  slow.t_rp *= k;
  AccessTrace trace;
  for (std::uint32_t r = 0; r < 6; ++r) trace.push_back(rd(0, 0, r, 0));
  Controller base(geom(), timing());
  Controller scaled(geom(), slow);
  EXPECT_GE(scaled.run(trace).total_time_ns,
            base.run(trace).total_time_ns - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ScaleFactors, SlowTimings,
                         ::testing::Values(1.0, 1.2, 1.5, 2.0));


// ------------------------------------------------- subarray-level parallelism

TEST(Salp, CrossSubarraySwitchIsMissNotConflict) {
  // With per-subarray row buffers (SALP), moving between subarrays of one
  // bank does not evict the other subarray's open row.
  Controller salp(geom(), timing(), /*subarray_level_parallelism=*/true);
  const auto stats =
      salp.run({rd(0, 0, 0, 0), rd(0, 1, 0, 0), rd(0, 0, 0, 8)});
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.hits, 1u);  // subarray 0's row is still open
}

TEST(Salp, CommodityModeConflictsOnSameTrace) {
  Controller plain(geom(), timing(), /*subarray_level_parallelism=*/false);
  const auto stats =
      plain.run({rd(0, 0, 0, 0), rd(0, 1, 0, 0), rd(0, 0, 0, 8)});
  EXPECT_EQ(stats.conflicts, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(Salp, NeverSlowerThanCommodity) {
  // Property: SALP only removes PRE+ACT work, so any trace is at least as
  // fast as on the commodity controller.
  Controller salp(geom(), timing(), true);
  Controller plain(geom(), timing(), false);
  Rng rng(77);
  AccessTrace trace;
  for (int i = 0; i < 500; ++i)
    trace.push_back(rd(static_cast<std::uint32_t>(rng.index(8)),
                       static_cast<std::uint32_t>(rng.index(4)),
                       static_cast<std::uint32_t>(rng.index(8)),
                       static_cast<std::uint32_t>(rng.index(64)) * 8));
  const auto t_salp = salp.run(trace).total_time_ns;
  const auto t_plain = plain.run(trace).total_time_ns;
  EXPECT_LE(t_salp, t_plain * 1.0001);
}

TEST(Salp, SameRowSameSubarrayStillHits) {
  Controller salp(geom(), timing(), true);
  const auto stats = salp.run({rd(0, 3, 5, 0), rd(0, 3, 5, 8)});
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// ----------------------------------------------------- randomized properties

/// Random trace spanning a few banks/subarrays/rows so every row-buffer
/// outcome class occurs.
AccessTrace random_trace(std::uint64_t seed, std::size_t n = 400) {
  Rng rng(seed);
  AccessTrace trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    trace.push_back(rd(static_cast<std::uint32_t>(rng.index(8)),
                       static_cast<std::uint32_t>(rng.index(4)),
                       static_cast<std::uint32_t>(rng.index(8)),
                       static_cast<std::uint32_t>(rng.index(64)) * 8));
  return trace;
}

class RandomTraces : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTraces, SalpNeverProducesMoreConflictsThanCommodity) {
  // A SALP conflict needs the *same subarray* open on a different row; in
  // commodity DRAM that access also conflicts (the shared bank buffer holds
  // a different bank-level row). So per access — and hence in aggregate —
  // SALP's conflicts are a subset of commodity's, and its hits a superset.
  const auto trace = random_trace(GetParam());
  Controller salp(geom(), timing(), true);
  Controller plain(geom(), timing(), false);
  const auto s = salp.run(trace);
  const auto p = plain.run(trace);
  EXPECT_LE(s.conflicts, p.conflicts);
  EXPECT_GE(s.hits, p.hits);
  EXPECT_EQ(s.accesses, p.accesses);
  EXPECT_EQ(s.hits + s.misses + s.conflicts, s.accesses);
}

TEST_P(RandomTraces, RunResetsStateBetweenCalls) {
  // After any prior trace, run() must behave exactly like a fresh
  // controller: identical classification counts, commands, and makespan.
  for (const bool salp_mode : {false, true}) {
    Controller reused(geom(), timing(), salp_mode);
    Controller fresh(geom(), timing(), salp_mode);
    (void)reused.run(random_trace(GetParam() + 1000));  // dirty the state
    const auto trace = random_trace(GetParam());
    const auto a = reused.run(trace, 3.0);
    const auto b = fresh.run(trace, 3.0);
    EXPECT_EQ(a.hits, b.hits) << "salp=" << salp_mode;
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.precharges, b.precharges);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_DOUBLE_EQ(a.total_time_ns, b.total_time_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraces,
                         ::testing::Values(1u, 7u, 42u, 1337u, 9001u));

// ------------------------------------------------------------------ refresh

TEST(Refresh, PolicyValidation) {
  const auto t = timing();
  EXPECT_NO_THROW(RefreshPolicy::disabled().validate(t));
  EXPECT_NO_THROW(RefreshPolicy::nominal().validate(t));
  EXPECT_NO_THROW(RefreshPolicy::reduced(16.0).validate(t));
  EXPECT_THROW(RefreshPolicy::reduced(0.5).validate(t), ContractViolation);
  EXPECT_THROW(RefreshPolicy::reduced(
                   std::numeric_limits<double>::infinity()).validate(t),
               ContractViolation);
  EXPECT_THROW(RefreshPolicy::reduced(
                   std::numeric_limits<double>::quiet_NaN()).validate(t),
               ContractViolation);
  // The multiplier is bounded: 1024x already makes ~28% of an average
  // subarray's cells retention-weak.
  EXPECT_NO_THROW(RefreshPolicy::reduced(1024.0).validate(t));
  EXPECT_THROW(RefreshPolicy::reduced(1024.5).validate(t), ContractViolation);
  EXPECT_THROW(RefreshPolicy::reduced(2e25).validate(t), ContractViolation);
  auto broken = t;
  broken.t_rfc = broken.t_refi + 1.0;  // REF longer than the interval
  EXPECT_THROW(RefreshPolicy::nominal().validate(broken), ContractViolation);
}

TEST(Refresh, EffectiveInterval) {
  const auto t = timing();
  EXPECT_DOUBLE_EQ(RefreshPolicy::nominal().effective_refi_ns(t), t.t_refi);
  EXPECT_DOUBLE_EQ(RefreshPolicy::reduced(8.0).effective_refi_ns(t),
                   8.0 * t.t_refi);
}

TEST(Refresh, NextOutsideRefreshWindowArithmetic) {
  const auto t = timing();
  Controller c(geom(), t, false, RefreshPolicy::nominal());
  // Before the first REF: identity.
  EXPECT_DOUBLE_EQ(c.next_outside_refresh(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.next_outside_refresh(t.t_refi - 1.0), t.t_refi - 1.0);
  // Inside window k = 1: pushed to its end.
  EXPECT_DOUBLE_EQ(c.next_outside_refresh(t.t_refi), t.t_refi + t.t_rfc);
  EXPECT_DOUBLE_EQ(c.next_outside_refresh(t.t_refi + t.t_rfc / 2),
                   t.t_refi + t.t_rfc);
  // At the window end: open again.
  EXPECT_DOUBLE_EQ(c.next_outside_refresh(t.t_refi + t.t_rfc),
                   t.t_refi + t.t_rfc);
  // Disabled refresh: identity everywhere.
  Controller off(geom(), t);
  EXPECT_DOUBLE_EQ(off.next_outside_refresh(t.t_refi), t.t_refi);
}

TEST(Refresh, WindowBoundaryTieBreakRefWins) {
  // A command landing EXACTLY on a window start k*tREFI_eff belongs to the
  // REF — it must be pushed behind the window no matter how t / tREFI_eff
  // rounds. The old floor()-only arithmetic made the outcome depend on
  // whether k*refi / refi rounded to k or to just under k, so the schedule
  // at an exact boundary flipped with the multiplier's binary
  // representation. Sweep FP-unfriendly multipliers and many k to pin the
  // tie-break.
  const auto t = timing();
  for (const double m : {1.0, 1.7, 2.0, 3.0, 7.0, 8.0, 13.7}) {
    const RefreshPolicy policy =
        m == 1.0 ? RefreshPolicy::nominal() : RefreshPolicy::reduced(m);
    Controller c(geom(), t, false, policy);
    const double refi = policy.effective_refi_ns(t);
    for (int k = 1; k <= 500; ++k) {
      const double boundary = static_cast<double>(k) * refi;
      // On the boundary: REF wins, command waits out tRFC.
      EXPECT_DOUBLE_EQ(c.next_outside_refresh(boundary), boundary + t.t_rfc)
          << "m=" << m << " k=" << k;
      // At the window end: open again (identity).
      EXPECT_DOUBLE_EQ(c.next_outside_refresh(boundary + t.t_rfc),
                       boundary + t.t_rfc)
          << "m=" << m << " k=" << k;
      // Mid-window: pushed to the end.
      EXPECT_DOUBLE_EQ(c.next_outside_refresh(boundary + t.t_rfc * 0.5),
                       boundary + t.t_rfc)
          << "m=" << m << " k=" << k;
    }
  }
}

TEST(Refresh, StallsAccessLandingInsideTheWindow) {
  const auto t = timing();
  Controller c(geom(), t, false, RefreshPolicy::nominal());
  // Second access arrives just as REF #1 starts: its ACT waits out tRFC.
  const auto stats = c.run({rd(0, 0, 0, 0), rd(1, 0, 0, 0)}, t.t_refi);
  const double expected =
      t.t_refi + t.t_rfc + t.t_rcd + t.t_cl + t.t_burst;
  EXPECT_NEAR(stats.total_time_ns, expected, 1e-9);
  EXPECT_EQ(stats.refreshes, 1u);
}

TEST(Refresh, NominalCadenceSlowsLongTracesAndCountsRefs) {
  AccessTrace trace;
  for (std::uint32_t r = 0; r < 64; ++r)
    for (std::uint32_t b = 0; b < 64; ++b) trace.push_back(rd(0, 0, r, b * 8));
  Controller off(geom(), timing());
  Controller on(geom(), timing(), false, RefreshPolicy::nominal());
  Controller relaxed(geom(), timing(), false, RefreshPolicy::reduced(8.0));
  const auto s_off = off.run(trace);
  const auto s_on = on.run(trace);
  const auto s_relaxed = relaxed.run(trace);
  EXPECT_EQ(s_off.refreshes, 0u);
  EXPECT_GT(s_on.refreshes, 0u);
  EXPECT_GT(s_on.total_time_ns, s_off.total_time_ns);
  // Relaxing the cadence recovers most of the stall time and cuts REFs.
  EXPECT_LT(s_relaxed.refreshes, s_on.refreshes);
  EXPECT_LE(s_relaxed.total_time_ns, s_on.total_time_ns);
  // Classification is purely address-driven: identical with refresh on.
  EXPECT_EQ(s_on.hits, s_off.hits);
  EXPECT_EQ(s_on.misses, s_off.misses);
  EXPECT_EQ(s_on.conflicts, s_off.conflicts);
}

// --------------------------------------- randomized refresh timing invariants

class RefreshProperties
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(RefreshProperties, TimingInvariantsHoldWithRefreshOn) {
  const auto [seed, multiplier] = GetParam();
  const auto t = timing();
  const RefreshPolicy policy = multiplier == 1.0
                                   ? RefreshPolicy::nominal()
                                   : RefreshPolicy::reduced(multiplier);
  for (const bool salp_mode : {false, true}) {
    Controller c(geom(), t, salp_mode, policy);
    const auto trace = random_trace(seed, 2000);
    std::vector<AccessTiming> timeline;
    // A mild arrival interval spreads the trace past several REF windows
    // (makespan >= 2000 x 25 ns = 50 us > 4 x tREFI).
    const auto stats = c.run(trace, 25.0, &timeline);
    ASSERT_EQ(timeline.size(), trace.size());

    const double refi = policy.effective_refi_ns(t);
    const auto inside_window = [&](double at) {
      const double k = std::floor(at / refi);
      return k >= 1.0 && at >= k * refi && at < k * refi + t.t_rfc;
    };
    double prev_end = 0.0;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const auto& a = timeline[i];
      // Completion times are monotonically non-decreasing (the shared bus
      // serializes bursts in trace order).
      EXPECT_GE(a.data_end_ns, prev_end) << "access " << i;
      prev_end = a.data_end_ns;
      // No command is serviced inside a [REF, REF + tRFC) window.
      if (a.pre_ns >= 0.0) {
        EXPECT_FALSE(inside_window(a.pre_ns)) << "PRE of access " << i;
      }
      if (a.act_ns >= 0.0) {
        EXPECT_FALSE(inside_window(a.act_ns)) << "ACT of access " << i;
      }
      EXPECT_FALSE(inside_window(a.cmd_ns)) << "RD of access " << i;
      EXPECT_NEAR(a.data_start_ns, a.cmd_ns + t.t_cl, 1e-9);
      EXPECT_NEAR(a.data_end_ns, a.data_start_ns + t.t_burst, 1e-9);
    }
    // The REF counter matches the windows the makespan spans.
    EXPECT_EQ(stats.refreshes,
              static_cast<std::uint64_t>(
                  std::floor(stats.total_time_ns / refi)));
    EXPECT_GT(stats.refreshes, 0u) << "trace too short to exercise refresh";
  }
}

TEST_P(RefreshProperties, DisabledPolicyReproducesRefreshFreeRunBitForBit) {
  const auto [seed, multiplier] = GetParam();
  (void)multiplier;
  for (const bool salp_mode : {false, true}) {
    Controller legacy(geom(), timing(), salp_mode);  // pre-refresh ctor
    Controller off(geom(), timing(), salp_mode, RefreshPolicy::disabled());
    const auto trace = random_trace(seed, 500);
    std::vector<AccessTiming> tl_legacy, tl_off;
    const auto a = legacy.run(trace, 3.0, &tl_legacy);
    const auto b = off.run(trace, 3.0, &tl_off);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.precharges, b.precharges);
    EXPECT_EQ(a.refreshes, 0u);
    EXPECT_EQ(b.refreshes, 0u);
    EXPECT_EQ(a.total_time_ns, b.total_time_ns);  // exact, not approximate
    ASSERT_EQ(tl_legacy.size(), tl_off.size());
    for (std::size_t i = 0; i < tl_legacy.size(); ++i) {
      EXPECT_EQ(tl_legacy[i].data_start_ns, tl_off[i].data_start_ns);
      EXPECT_EQ(tl_legacy[i].data_end_ns, tl_off[i].data_end_ns);
      EXPECT_EQ(tl_legacy[i].act_ns, tl_off[i].act_ns);
      EXPECT_EQ(tl_legacy[i].pre_ns, tl_off[i].pre_ns);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMultipliers, RefreshProperties,
    ::testing::Combine(::testing::Values(3u, 19u, 271u, 6553u),
                       ::testing::Values(1.0, 4.0)));

// ------------------------------------------- classify() vs run() differential

class ClassifyDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifyDifferential, ClassifyAgreesWithRunForHeadOfTraceProbes) {
  // For a random single-access probe X against the state a prefix trace T
  // leaves behind, classify(X) must name exactly the outcome run() records
  // for X when it is appended to T — on commodity and SALP organizations,
  // with refresh off and on (refresh stalls time but never reclassifies).
  Rng rng(GetParam());
  const auto prefix = random_trace(GetParam(), 200);
  for (const bool salp_mode : {false, true}) {
    for (const RefreshPolicy policy :
         {RefreshPolicy::disabled(), RefreshPolicy::nominal(),
          RefreshPolicy::reduced(16.0)}) {
      Controller c(geom(), timing(), salp_mode, policy);
      (void)c.run(prefix, 4.0);  // leaves head-of-trace state behind
      for (int probe = 0; probe < 50; ++probe) {
        const Access x = rd(static_cast<std::uint32_t>(rng.index(8)),
                            static_cast<std::uint32_t>(rng.index(4)),
                            static_cast<std::uint32_t>(rng.index(8)),
                            static_cast<std::uint32_t>(rng.index(64)) * 8);
        const auto predicted = c.classify(x);

        auto extended = prefix;
        extended.push_back(x);
        Controller fresh(geom(), timing(), salp_mode, policy);
        const auto with = fresh.run(extended, 4.0);
        Controller fresh2(geom(), timing(), salp_mode, policy);
        const auto without = fresh2.run(prefix, 4.0);
        RowBufferOutcome actual;
        if (with.hits > without.hits)
          actual = RowBufferOutcome::kHit;
        else if (with.misses > without.misses)
          actual = RowBufferOutcome::kMiss;
        else
          actual = RowBufferOutcome::kConflict;
        EXPECT_EQ(predicted, actual)
            << "salp=" << salp_mode << " refresh=" << int(policy.mode)
            << " probe=" << probe;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifyDifferential,
                         ::testing::Values(11u, 77u, 4242u));

}  // namespace
}  // namespace sparkxd::dram
