// Tests for the DRAM power model (Fig. 2b, Table I) and the platform
// breakdown model (Fig. 1b).

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "energy/platform_model.hpp"
#include "energy/power_model.hpp"
#include "energy/voltage_model.hpp"

namespace sparkxd::energy {
namespace {

using dram::RowBufferOutcome;

dram::TimingParams nominal() { return dram::TimingParams::lpddr3_1600(); }

// --------------------------------------------------------------- power model

TEST(PowerModel, ScalingFactors) {
  EXPECT_DOUBLE_EQ(PowerModel::dynamic_scale(kNominalVdd), 1.0);
  EXPECT_DOUBLE_EQ(PowerModel::background_scale(kNominalVdd), 1.0);
  EXPECT_NEAR(PowerModel::dynamic_scale(1.025), 0.5764, 0.001);
  EXPECT_NEAR(PowerModel::background_scale(1.025), 0.7593, 0.001);
}

TEST(PowerModel, HitLessThanMissLessThanConflict) {
  // Paper Fig. 2b: energy ordering of the access conditions.
  const PowerModel pm;
  for (const double v : {1.350, 1.025}) {
    const double hit = pm.access_energy_nj(RowBufferOutcome::kHit, v, nominal());
    const double miss =
        pm.access_energy_nj(RowBufferOutcome::kMiss, v, nominal());
    const double conf =
        pm.access_energy_nj(RowBufferOutcome::kConflict, v, nominal());
    EXPECT_LT(hit, miss);
    EXPECT_LT(miss, conf);
  }
}

TEST(PowerModel, NominalAccessEnergiesInFig2bRange) {
  const PowerModel pm;
  const double hit =
      pm.access_energy_nj(RowBufferOutcome::kHit, kNominalVdd, nominal());
  const double conf =
      pm.access_energy_nj(RowBufferOutcome::kConflict, kNominalVdd, nominal());
  EXPECT_GT(hit, 1.0);
  EXPECT_LT(hit, 3.0);
  EXPECT_GT(conf, 6.0);
  EXPECT_LT(conf, 9.0);
}

TEST(PowerModel, PerAccessSavingsInPaperRange) {
  // Paper §I-B: 31%-42% energy saving per access at 1.025 V. Our calibration
  // (see EXPERIMENTS.md) lands every condition inside a slightly tighter
  // 30-43% band.
  const PowerModel pm;
  const VoltageModel vm;
  const auto slow = vm.derive_timings(1.025);
  for (const auto outcome :
       {RowBufferOutcome::kHit, RowBufferOutcome::kMiss,
        RowBufferOutcome::kConflict}) {
    const double e_nom =
        pm.access_energy_nj(outcome, kNominalVdd, nominal());
    const double e_low = pm.access_energy_nj(outcome, 1.025, slow);
    const double saving = 1.0 - e_low / e_nom;
    EXPECT_GT(saving, 0.30);
    EXPECT_LT(saving, 0.43);
  }
}

TEST(PowerModel, ArrayEnergyPerAccessMatchesTable1) {
  // Table I: savings of the DRAM energy-per-access at each voltage step.
  const PowerModel pm;
  const double base = pm.array_energy_per_access_nj(kNominalVdd);
  const double expected[] = {3.92, 14.29, 24.33, 33.59, 42.40};
  int i = 0;
  for (const double v : kEvalVoltages) {
    const double saving =
        100.0 * (1.0 - pm.array_energy_per_access_nj(v) / base);
    EXPECT_NEAR(saving, expected[i], 0.5)
        << "voltage " << v << ": paper reports " << expected[i];
    ++i;
  }
}

TEST(PowerModel, TraceEnergyScalesWithCounts) {
  const PowerModel pm;
  dram::TraceStats s;
  s.reads = 10;
  s.activates = 2;
  s.precharges = 2;
  s.total_time_ns = 100.0;
  const auto e1 = pm.trace_energy(s, kNominalVdd);
  s.reads = 20;
  const auto e2 = pm.trace_energy(s, kNominalVdd);
  EXPECT_NEAR(e2.read_nj, 2.0 * e1.read_nj, 1e-12);
  EXPECT_NEAR(e2.io_nj, 2.0 * e1.io_nj, 1e-12);
  EXPECT_DOUBLE_EQ(e2.act_nj, e1.act_nj);
}

TEST(PowerModel, TraceEnergyDecreasesWithVoltage) {
  const PowerModel pm;
  dram::TraceStats s;
  s.reads = 100;
  s.activates = 5;
  s.precharges = 5;
  s.total_time_ns = 1000.0;
  double prev = 1e18;
  for (const double v : {1.350, 1.325, 1.250, 1.175, 1.100, 1.025}) {
    const double e = pm.trace_energy(s, v).total_nj();
    EXPECT_LT(e, prev);
    prev = e;
  }
}

TEST(PowerModel, IoEnergyIsVoltageIndependent) {
  const PowerModel pm;
  dram::TraceStats s;
  s.reads = 10;
  EXPECT_DOUBLE_EQ(pm.trace_energy(s, 1.35).io_nj,
                   pm.trace_energy(s, 1.025).io_nj);
}

TEST(PowerModel, BreakdownSumsToTotal) {
  const PowerModel pm;
  dram::TraceStats s;
  s.reads = 7;
  s.writes = 3;
  s.activates = 2;
  s.precharges = 2;
  s.total_time_ns = 500.0;
  const auto e = pm.trace_energy(s, 1.1);
  EXPECT_NEAR(e.total_nj(), e.act_nj + e.pre_nj + e.read_nj + e.write_nj +
                                e.io_nj + e.background_nj,
              1e-12);
}

TEST(PowerModel, RejectsNonPositiveVoltage) {
  EXPECT_THROW((void)PowerModel::dynamic_scale(0.0), ContractViolation);
  EXPECT_THROW((void)PowerModel::background_scale(-1.0), ContractViolation);
}

TEST(PowerModel, RefreshPolicyAwareTraceEnergy) {
  const PowerModel pm;
  dram::TraceStats s;
  s.reads = 100;
  s.activates = 5;
  s.precharges = 5;
  s.total_time_ns = 20000.0;  // legacy estimate: floor(20000/7800) = 2 REFs
  s.refreshes = 3;            // as counted by a refresh-simulating controller
  // Disabled policy falls back to the legacy makespan estimate, byte for
  // byte.
  const auto legacy = pm.trace_energy(s, kNominalVdd);
  const auto off =
      pm.trace_energy(s, kNominalVdd, dram::RefreshPolicy::disabled());
  EXPECT_EQ(off.refresh_nj, legacy.refresh_nj);
  EXPECT_DOUBLE_EQ(legacy.refresh_nj, 2.0 * PowerModel::kRefreshNj);
  // Simulated policies charge the counted REF commands instead.
  const auto nominal =
      pm.trace_energy(s, kNominalVdd, dram::RefreshPolicy::nominal());
  EXPECT_DOUBLE_EQ(nominal.refresh_nj, 3.0 * PowerModel::kRefreshNj);
  // Refresh charge is array work: V^2 scaling like ACT/PRE.
  const auto reduced_low_v =
      pm.trace_energy(s, 1.025, dram::RefreshPolicy::reduced(8.0));
  EXPECT_DOUBLE_EQ(reduced_low_v.refresh_nj,
                   3.0 * PowerModel::kRefreshNj *
                       PowerModel::dynamic_scale(1.025));
  // Fewer REFs -> proportionally less refresh energy (the reduced-rate win).
  dram::TraceStats relaxed = s;
  relaxed.refreshes = 1;
  EXPECT_LT(pm.trace_energy(relaxed, kNominalVdd,
                            dram::RefreshPolicy::reduced(3.0))
                .refresh_nj,
            nominal.refresh_nj);
}

// ------------------------------------------------------------ platform model

TEST(PlatformModel, ThreePlatformsOfFig1b) {
  const auto ps = fig1b_platforms();
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps[0].name, "TrueNorth");
  EXPECT_EQ(ps[1].name, "SNNAP");
  EXPECT_EQ(ps[2].name, "PEASE");
}

TEST(PlatformModel, SharesSumToOne) {
  const auto w = snn_inference_workload(784, 400, 100, 0.1);
  for (const auto& p : fig1b_platforms()) {
    const auto s = breakdown(p, w);
    EXPECT_NEAR(s.computation + s.communication + s.memory, 1.0, 1e-12);
    EXPECT_GE(s.computation, 0.0);
    EXPECT_GE(s.communication, 0.0);
    EXPECT_GE(s.memory, 0.0);
  }
}

TEST(PlatformModel, MemoryDominatesAsInPaper) {
  // Paper Fig. 1b / [5]: memory accesses consume ~50-75% of total energy.
  const auto w = snn_inference_workload(784, 400, 100, 0.1);
  for (const auto& p : fig1b_platforms()) {
    const auto s = breakdown(p, w);
    EXPECT_GE(s.memory, 0.45) << p.name;
    EXPECT_LE(s.memory, 0.80) << p.name;
  }
}

TEST(PlatformModel, PeaseMostMemoryBound) {
  const auto w = snn_inference_workload(784, 400, 100, 0.1);
  const auto ps = fig1b_platforms();
  const double tn = breakdown(ps[0], w).memory;
  const double pease = breakdown(ps[2], w).memory;
  EXPECT_GT(pease, tn);
}

TEST(PlatformModel, WorkloadScalesWithNetwork) {
  const auto small = snn_inference_workload(784, 100, 100, 0.1);
  const auto large = snn_inference_workload(784, 400, 100, 0.1);
  EXPECT_NEAR(large.synaptic_ops / small.synaptic_ops, 4.0, 0.01);
  EXPECT_GT(large.memory_bytes, small.memory_bytes);
  EXPECT_DOUBLE_EQ(large.spikes, small.spikes);  // input-driven
}

TEST(PlatformModel, RejectsDegenerateInputs) {
  EXPECT_THROW((void)snn_inference_workload(784, 400, 100, 1.5), ContractViolation);
  const SnnWorkload empty{};
  EXPECT_THROW((void)breakdown(fig1b_platforms()[0], empty), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::energy
