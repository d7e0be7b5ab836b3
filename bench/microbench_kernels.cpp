// google-benchmark microkernels: the hot loops of every subsystem.
// Not a paper figure — used to track the simulator's own performance.

#include <benchmark/benchmark.h>

#include <string>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "dram/controller.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"

namespace {

using namespace sparkxd;

// range(0) neurons; range(1) = 0 times train_step (thresholds decay and
// grow), 1 times infer_step (thresholds frozen).
void BM_LifStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool infer = state.range(1) != 0;
  snn::LifLayer layer(n);
  std::vector<float> current(n, 0.05f);
  std::vector<float> theta(n, 0.0f);
  std::vector<std::uint32_t> spikes;
  for (auto _ : state) {
    if (infer)
      layer.infer_step(current, theta, spikes);
    else
      layer.train_step(current, theta, spikes);
    benchmark::DoNotOptimize(spikes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_LifStep)
    ->ArgsProduct({{400, 3600}, {0, 1}})
    ->ArgNames({"n", "infer"});

void BM_StdpUpdate(benchmark::State& state) {
  const std::size_t ni = 784;
  std::vector<float> w(ni, 0.1f);
  std::vector<float> x(ni, 0.5f);
  for (auto _ : state) {
    snn::stdp_post_update(w.data(), ni, x);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(ni));
}
BENCHMARK(BM_StdpUpdate);

// One 784-pixel digit at max_rate = range(0) / 100: the spike density
// sweeps from sparse (0.02) through the pipeline default (0.3) to 1.0.
void BM_PoissonEncodeStep(benchmark::State& state) {
  const auto ds = data::make_dataset(data::Task::kDigits, 1, 1);
  snn::PoissonEncoder enc(static_cast<float>(state.range(0)) / 100.0f);
  enc.set_image(ds.images[0]);
  Rng rng(1);
  std::vector<std::uint32_t> spikes;
  for (auto _ : state) {
    enc.step(rng, spikes);
    benchmark::DoNotOptimize(spikes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PoissonEncodeStep)->Arg(2)->Arg(30)->Arg(100);

void BM_NetworkInference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  snn::NetworkConfig cfg;
  cfg.n_neurons = n;
  const snn::Network net(cfg);
  snn::InferenceState inference(net);
  const auto ds = data::make_dataset(data::Task::kDigits, 1, 1);
  Rng rng(1);
  for (auto _ : state) {
    auto counts = net.infer(inference, ds.images[0], rng);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_NetworkInference)->Arg(400)->Arg(1600);

// One STDP training sample (60 steps: gather, LIF, STDP write-through, then
// the row normalisation). Arg 0: the flat 784->64 network; Arg 1: a deep
// 784->128->64 stack.
void BM_TrainStep(benchmark::State& state) {
  snn::NetworkConfig cfg;
  cfg.n_neurons = 64;
  if (state.range(0) != 0) cfg.hidden_neurons = {128};
  snn::Network net(cfg);
  const auto ds = data::make_dataset(data::Task::kDigits, 1, 1);
  Rng rng(1);
  for (auto _ : state) {
    auto counts = net.train_step(ds.images[0], rng);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_TrainStep)->Arg(0)->Arg(1);

// normalize_rows on a 784 x range(0) layer: sums over the
// transposed layout, then scales both layouts.
void BM_NormalizeRows(benchmark::State& state) {
  snn::NetworkConfig cfg;
  cfg.n_neurons = static_cast<std::size_t>(state.range(0));
  snn::Network net(cfg);
  for (auto _ : state) {
    net.normalize_rows();
    benchmark::DoNotOptimize(net.weights(0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cfg.n_inputs * cfg.n_neurons));
}
BENCHMARK(BM_NormalizeRows)->Arg(64)->Arg(400);

// Arg 0: refresh off; Arg 1: nominal cadence, so every command dodges the
// REF windows.
void BM_ControllerStreaming(benchmark::State& state) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const std::size_t n_weights = 784 * 400;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto trace = mapping::streaming_read_trace(g, place, n_weights);
  const bool refresh = state.range(0) != 0;
  dram::Controller c(g, dram::TimingParams::lpddr3_1600(), false,
                     refresh ? dram::RefreshPolicy::nominal()
                             : dram::RefreshPolicy::disabled());
  state.SetLabel(refresh ? "nominal refresh" : "refresh off");
  for (auto _ : state) {
    auto stats = c.run(trace);
    benchmark::DoNotOptimize(&stats);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_ControllerStreaming)->Arg(0)->Arg(1);

// Arg 0-3: Models 0-3; Arg 4: Model-0 plus retention failures at an 8x
// refresh interval.
void BM_InjectorBuild(benchmark::State& state) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 1);
  const std::size_t n_weights = 784 * 400;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  error::ErrorModelSpec spec;
  if (state.range(0) < 4) {
    spec.kind = static_cast<error::ErrorModelKind>(state.range(0));
  } else {
    spec.retention.enabled = true;
    spec.retention.interval_multiplier = 8.0;
  }
  for (auto _ : state) {
    auto inj = error::ErrorInjector::for_weights(g, profile, spec, place,
                                                 n_weights, 1, 1e-3);
    benchmark::DoNotOptimize(&inj);
  }
  state.SetLabel(spec.retention.enabled ? "Model-0 + retention"
                                        : error::to_string(spec.kind));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n_weights) * 32);
}
BENCHMARK(BM_InjectorBuild)->DenseRange(0, 4);

// Six injectors over overlapping placements (windows of one baseline walk,
// each shifted by a quarter window): Arg 0 builds each standalone, Arg 1
// enumerates one weak-cell map over all six and selects each from it.
void BM_InjectorFromMap(benchmark::State& state) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 1);
  const std::size_t n_weights = 784 * 100;
  const std::size_t window = mapping::chunks_for_weights(g, n_weights);
  const auto walk =
      mapping::baseline_placement_layers(g, {n_weights * 9 / 4})[0];
  std::vector<error::ChunkPlacement> places;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto first =
        walk.begin() + static_cast<std::ptrdiff_t>(i * window / 4);
    places.emplace_back(first, first + static_cast<std::ptrdiff_t>(window));
  }
  const bool shared = state.range(0) == 1;
  std::size_t distinct = 0;
  for (auto _ : state) {
    if (shared) {
      error::WeakCellMap map(g, profile, {}, 1, 1e-3);
      for (const auto& place : places) map.add(place);
      distinct = map.size();
      for (const auto& place : places) {
        const error::ErrorInjector inj(map, place, n_weights * sizeof(float),
                                       1e-3);
        benchmark::DoNotOptimize(&inj);
      }
    } else {
      for (const auto& place : places) {
        auto inj = error::ErrorInjector::for_weights(g, profile, {}, place,
                                                     n_weights, 1, 1e-3);
        benchmark::DoNotOptimize(&inj);
      }
    }
  }
  state.SetLabel(shared ? "one map, " + std::to_string(distinct) + " of " +
                               std::to_string(6 * window) + " chunks distinct"
                         : "standalone");
}
BENCHMARK(BM_InjectorFromMap)->DenseRange(0, 1);

void BM_InjectorInject(benchmark::State& state) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 1);
  const std::size_t n_weights = 784 * 400;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  // Freeze once, time the read: the path every caller injects through.
  const auto frozen = error::ErrorInjector::for_weights(
                          g, profile, {}, place, n_weights, 1, 1e-3)
                          .freeze(1e-3);
  std::vector<float> w(n_weights, 0.1f);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frozen.inject(w, rng));
  }
}
BENCHMARK(BM_InjectorInject);

void BM_SparkXdLayerPlacement(benchmark::State& state) {
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 1);
  const std::size_t n_weights = 784 * 3600;
  for (auto _ : state) {
    auto p = mapping::sparkxd_placement_layers(g, profile, 1e-3, {1e-3},
                                               {n_weights})[0];
    benchmark::DoNotOptimize(p.chunks.data());
  }
}
BENCHMARK(BM_SparkXdLayerPlacement);

}  // namespace

BENCHMARK_MAIN();
