// Tests for the deterministic parallel evaluation engine: parallel_for
// semantics (coverage, nesting, exceptions, the SPARKXD_THREADS knob) and
// the framework-wide determinism contract — the full pipeline report, the
// injector's candidate enumeration, and corrupted-accuracy evaluation must
// be bit-identical at every thread count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "error/injector.hpp"
#include "inject_test_util.hpp"
#include "mapping/mapping.hpp"
#include "test_env_util.hpp"

namespace sparkxd {
namespace {

using testutil::ThreadsOverride;

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, ThreadCountKnobIsReadPerCall) {
  {
    ThreadsOverride t("3");
    EXPECT_EQ(thread_count(), 3u);
  }
  {
    ThreadsOverride t("1");
    EXPECT_EQ(thread_count(), 1u);
  }
  {
    ThreadsOverride t("0");  // clamped up to 1
    EXPECT_EQ(thread_count(), 1u);
  }
  ThreadsOverride t("100000");  // clamped down to 256
  EXPECT_EQ(thread_count(), 256u);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  ThreadsOverride threads("4");
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);  // one writer per slot — no atomics needed
  parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, ZeroAndSingleItemWork) {
  ThreadsOverride threads("4");
  parallel_for(0, [](std::size_t) { FAIL() << "no items to run"; });
  int runs = 0;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  ThreadsOverride threads("4");
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInlineOnTheWorker) {
  ThreadsOverride threads("4");
  EXPECT_FALSE(in_parallel_region());
  const std::size_t outer = 8, inner = 8;
  std::vector<int> hits(outer * inner, 0);
  parallel_for(outer, [&](std::size_t i) {
    EXPECT_TRUE(in_parallel_region());
    parallel_for(inner, [&](std::size_t j) { ++hits[i * inner + j]; });
  });
  EXPECT_FALSE(in_parallel_region());
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunks, PartitionIsContiguousCompleteAndOrdered) {
  ThreadsOverride threads("3");
  const std::size_t n = 101;
  ASSERT_EQ(parallel_chunk_count(n), 3u);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(3, {0, 0});
  parallel_for_chunks(
      n, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        ASSERT_LT(chunk, ranges.size());
        ranges[chunk] = {begin, end};
      });
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, n);
}

// ------------------------------------------- thread-count-invariant results

core::PipelineConfig tiny_pipeline_config(std::uint64_t seed = 42) {
  core::PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = seed;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.fault_training.eval_trials = 2;  // exercise the trial-level fan-out
  cfg.voltages = {1.250, 1.100, 1.025};
  cfg.seed = seed;
  return cfg;
}

/// Asserts two pipeline reports are bit-identical, field by field.
void expect_identical(const core::PipelineReport& a,
                      const core::PipelineReport& b) {
  EXPECT_EQ(a.baseline_accuracy, b.baseline_accuracy);
  EXPECT_EQ(a.improved_accuracy, b.improved_accuracy);
  EXPECT_EQ(a.ber_th, b.ber_th);
  EXPECT_EQ(a.met_target, b.met_target);
  EXPECT_EQ(a.baseline_energy_nj, b.baseline_energy_nj);
  EXPECT_EQ(a.baseline_time_ns, b.baseline_time_ns);
  ASSERT_EQ(a.stage_curve.size(), b.stage_curve.size());
  for (std::size_t i = 0; i < a.stage_curve.size(); ++i) {
    EXPECT_EQ(a.stage_curve[i].ber, b.stage_curve[i].ber);
    EXPECT_EQ(a.stage_curve[i].accuracy, b.stage_curve[i].accuracy);
  }
  ASSERT_EQ(a.per_voltage.size(), b.per_voltage.size());
  for (std::size_t i = 0; i < a.per_voltage.size(); ++i) {
    const auto& va = a.per_voltage[i];
    const auto& vb = b.per_voltage[i];
    EXPECT_EQ(va.v_supply, vb.v_supply);
    EXPECT_EQ(va.module_ber, vb.module_ber);
    EXPECT_EQ(va.accuracy, vb.accuracy);
    EXPECT_EQ(va.energy_nj, vb.energy_nj);
    EXPECT_EQ(va.saving_pct, vb.saving_pct);
    EXPECT_EQ(va.speedup, vb.speedup);
    EXPECT_EQ(va.row_hit_rate, vb.row_hit_rate);
    EXPECT_EQ(va.safe_subarrays, vb.safe_subarrays);
    EXPECT_EQ(va.capacity_relaxed, vb.capacity_relaxed);
  }
}

TEST(ParallelDeterminism, PipelineReportIsIdenticalAtOneAndManyThreads) {
  const auto cfg = tiny_pipeline_config();
  core::PipelineReport serial, parallel;
  {
    ThreadsOverride threads("1");
    serial = core::run_pipeline(cfg);
  }
  {
    ThreadsOverride threads("4");
    parallel = core::run_pipeline(cfg);
  }
  expect_identical(serial, parallel);
}

TEST(ParallelDeterminism, GoldenSameSeedSameReport) {
  const auto cfg = tiny_pipeline_config();
  const auto a = core::run_pipeline(cfg);
  const auto b = core::run_pipeline(cfg);
  expect_identical(a, b);
  // And the config actually produced a meaningful run.
  EXPECT_GT(a.baseline_accuracy, 0.0);
  EXPECT_EQ(a.per_voltage.size(), cfg.voltages.size());
}

TEST(ParallelDeterminism, DifferentSeedDifferentReport) {
  // The seed drives dataset synthesis and training, so accuracy must move;
  // baseline DRAM energy is pure geometry + placement and stays put.
  const auto a = core::run_pipeline(tiny_pipeline_config(42));
  const auto b = core::run_pipeline(tiny_pipeline_config(43));
  EXPECT_NE(a.baseline_accuracy, b.baseline_accuracy);
  EXPECT_EQ(a.baseline_energy_nj, b.baseline_energy_nj);
}

TEST(ParallelDeterminism, InjectorEnumerationIsThreadCountInvariant) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 42);
  const std::size_t n_weights = 100000;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];

  const auto masks_at = [&](const char* threads_value) {
    ThreadsOverride threads(threads_value);
    const auto inj = error::ErrorInjector::for_weights(g, profile, {}, place,
                                                       n_weights, 42, 1e-3);
    std::vector<float> w(n_weights, 0.0f);
    testutil::inject_all_weak(inj, w, 1e-3, {-1e30f, 1e30f});
    std::vector<std::uint32_t> bits(n_weights);
    for (std::size_t i = 0; i < n_weights; ++i) bits[i] = float_to_bits(w[i]);
    return std::pair{inj.candidate_count(), bits};
  };

  const auto [count_1, bits_1] = masks_at("1");
  const auto [count_4, bits_4] = masks_at("4");
  EXPECT_EQ(count_1, count_4);
  EXPECT_GT(count_1, 0u);
  EXPECT_EQ(bits_1, bits_4);
}

TEST(ParallelDeterminism, WeakCellMapIsThreadCountInvariant) {
  // Model-1 also draws the bitline-run memo concurrently.
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 42);
  error::ErrorModelSpec spec;
  spec.kind = error::ErrorModelKind::kModel1Bitline;
  auto places = mapping::baseline_placement_layers(g, {60000, 40000});
  places.push_back(mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3},
                                                     {50000})[0]
                       .chunks);

  const auto build_at = [&](const char* threads_value) {
    ThreadsOverride threads(threads_value);
    error::WeakCellMap map(g, profile, spec, 42, 1e-3);
    for (const auto& place : places) map.add(place);
    std::vector<std::pair<double, std::uint32_t>> cells;
    for (const auto& place : places)
      for (const auto& chunk : map.chunks(place))
        for (const auto& c : chunk) cells.emplace_back(c.score, c.bit);
    const error::ErrorInjector inj(map, places[2], 50000 * sizeof(float),
                                   1e-3);
    return std::tuple{map.size(), cells, inj.freeze(1e-3).entries()};
  };

  const auto at_1 = build_at("1");
  const auto at_4 = build_at("4");
  EXPECT_GT(std::get<0>(at_1), 0u);
  EXPECT_GT(std::get<1>(at_1).size(), 0u);
  EXPECT_EQ(at_1, at_4);
}

}  // namespace
}  // namespace sparkxd
