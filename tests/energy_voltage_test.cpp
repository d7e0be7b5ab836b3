// Tests for the array-voltage model (Fig. 2d / Fig. 6) and the BER model
// (Fig. 2c).

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "energy/ber_model.hpp"
#include "energy/voltage_model.hpp"

namespace sparkxd::energy {
namespace {

// ------------------------------------------------------------- voltage model

TEST(VoltageModel, NominalTimingsMatchDatasheet) {
  const VoltageModel vm;
  // Calibration targets: LPDDR3-1600 at 1.35 V.
  EXPECT_NEAR(vm.t_rcd_ns(kNominalVdd), 18.0, 0.5);
  EXPECT_NEAR(vm.t_ras_ns(kNominalVdd), 42.0, 1.0);
  EXPECT_NEAR(vm.t_rp_ns(kNominalVdd), 18.0, 0.5);
}

TEST(VoltageModel, ActivateStartsAtHalfVdd) {
  const VoltageModel vm;
  EXPECT_NEAR(vm.v_array_activate(1.35, 0.0), 0.675, 1e-9);
}

TEST(VoltageModel, ActivateApproachesVdd) {
  const VoltageModel vm;
  EXPECT_NEAR(vm.v_array_activate(1.35, 200.0), 1.35, 0.01);
}

TEST(VoltageModel, ActivateWaveformMonotonicallyRises) {
  const VoltageModel vm;
  double prev = 0.0;
  for (double t = 0.0; t <= 80.0; t += 1.0) {
    const double v = vm.v_array_activate(1.35, t);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(VoltageModel, PrechargeDecaysToHalfVdd) {
  const VoltageModel vm;
  const double v0 = 1.35;
  EXPECT_NEAR(vm.v_array_precharge(1.35, v0, 100.0), 0.675, 0.005);
  // Monotone decay toward the target.
  EXPECT_GT(vm.v_array_precharge(1.35, v0, 2.0),
            vm.v_array_precharge(1.35, v0, 8.0));
}

TEST(VoltageModel, ThresholdDefinitionsHold) {
  // The derived timings are exactly when the waveform crosses the paper's
  // 75% / 98% / 2% thresholds.
  const VoltageModel vm;
  for (const double v : {1.35, 1.175, 1.025}) {
    EXPECT_NEAR(vm.v_array_activate(v, vm.t_rcd_ns(v)), 0.75 * v, 1e-6);
    EXPECT_NEAR(vm.v_array_activate(v, vm.t_ras_ns(v)), 0.98 * v, 1e-6);
    const double after_pre = vm.v_array_precharge(v, v, vm.t_rp_ns(v));
    EXPECT_NEAR(after_pre, v / 2.0 + 0.02 * (v / 2.0), 1e-6);
  }
}

TEST(VoltageModel, TimingsGrowAsVoltageDrops) {
  // Paper Fig. 6: reliable tRCD/tRAS/tRP increase at reduced voltage.
  const VoltageModel vm;
  double prev_rcd = 0.0, prev_ras = 0.0, prev_rp = 0.0;
  for (const double v : {1.350, 1.325, 1.250, 1.175, 1.100, 1.025}) {
    EXPECT_GT(vm.t_rcd_ns(v), prev_rcd);
    EXPECT_GT(vm.t_ras_ns(v), prev_ras);
    EXPECT_GT(vm.t_rp_ns(v), prev_rp);
    prev_rcd = vm.t_rcd_ns(v);
    prev_ras = vm.t_ras_ns(v);
    prev_rp = vm.t_rp_ns(v);
  }
}

TEST(VoltageModel, DeriveTimingsRoundsToClock) {
  const VoltageModel vm;
  const auto t = vm.derive_timings(1.1);
  const auto is_clock_multiple = [&t](double ns) {
    const double clocks = ns / t.t_ck;
    return std::abs(clocks - std::round(clocks)) < 1e-9;
  };
  EXPECT_TRUE(is_clock_multiple(t.t_rcd));
  EXPECT_TRUE(is_clock_multiple(t.t_ras));
  EXPECT_TRUE(is_clock_multiple(t.t_rp));
  EXPECT_GE(t.t_rcd, vm.t_rcd_ns(1.1));
}

TEST(VoltageModel, WaveformCoversActAndPre) {
  const VoltageModel vm;
  const auto wf = vm.waveform(1.35, 45.0, 80.0, 1.0);
  ASSERT_GE(wf.size(), 80u);
  // Rises before PRE, falls after.
  EXPECT_LT(wf[0].v_array, wf[40].v_array);
  EXPECT_GT(wf[46].v_array, wf[79].v_array);
  EXPECT_NEAR(wf.back().v_array, 0.675, 0.05);
}

TEST(VoltageModel, LowerVoltageLowerWaveform) {
  // Paper Fig. 2d: the 1.025 V waveform sits below the 1.35 V one.
  const VoltageModel vm;
  const auto hi = vm.waveform(1.350, 45.0, 80.0, 1.0);
  const auto lo = vm.waveform(1.025, 45.0, 80.0, 1.0);
  for (std::size_t i = 0; i < std::min(hi.size(), lo.size()); ++i)
    EXPECT_LE(lo[i].v_array, hi[i].v_array + 1e-9);
}

TEST(VoltageModel, WaveformRejectsBadWindow) {
  const VoltageModel vm;
  EXPECT_THROW(vm.waveform(1.35, 100.0, 80.0, 1.0), ContractViolation);
  EXPECT_THROW(vm.waveform(1.35, 10.0, 80.0, 0.0), ContractViolation);
}

TEST(VoltageModel, RejectsOutOfRangeVoltage) {
  const VoltageModel vm;
  EXPECT_THROW((void)vm.t_rcd_ns(0.2), ContractViolation);
  EXPECT_THROW((void)vm.t_rcd_ns(3.0), ContractViolation);
}

class VoltageSweep : public ::testing::TestWithParam<double> {};

TEST_P(VoltageSweep, RasAlwaysExceedsRcd) {
  // 98% restore is necessarily later than 75% readiness.
  const VoltageModel vm;
  EXPECT_GT(vm.t_ras_ns(GetParam()), vm.t_rcd_ns(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(EvalVoltages, VoltageSweep,
                         ::testing::Values(1.350, 1.325, 1.250, 1.175, 1.100,
                                           1.025));

// ----------------------------------------------------------------- BER model

TEST(BerModel, ZeroAtNominal) {
  const BerModel bm;
  EXPECT_EQ(bm.ber(1.35), 0.0);
  EXPECT_EQ(bm.ber(1.40), 0.0);
}

TEST(BerModel, AnchorsMatchPaperDecades) {
  // The five evaluation voltages land on the 1e-9 .. 1e-3 decades used by
  // the paper's training schedule (Fig. 2c / §IV-B).
  const BerModel bm;
  EXPECT_NEAR(std::log10(bm.ber(1.325)), -9.0, 0.01);
  EXPECT_NEAR(std::log10(bm.ber(1.025)), -3.0, 0.01);
  EXPECT_NEAR(std::log10(bm.ber(1.175)), -6.0, 0.01);
}

TEST(BerModel, MonotonicallyIncreasingAsVoltageDrops) {
  const BerModel bm;
  double prev = -1.0;
  for (double v = 1.34; v >= 0.95; v -= 0.01) {
    const double b = bm.ber(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(BerModel, ClampsAtMaxBer) {
  const BerModel bm;
  EXPECT_LE(bm.ber(0.90), 1.0e-2 + 1e-12);
}

TEST(BerModel, RejectsNonPositiveVoltage) {
  const BerModel bm;
  EXPECT_THROW((void)bm.ber(0.0), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::energy
