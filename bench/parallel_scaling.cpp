// Parallel-sweep scaling: wall-clock of the SparkXD evaluation hot loop —
// a 5-voltage sweep of Monte-Carlo corrupted-accuracy trials — at
// SPARKXD_THREADS=1 versus all available cores, verifying the sweep means
// are bit-identical in both runs (the engine's determinism contract).
//
// This is the workload the parallel evaluation engine exists for: every
// (voltage, trial) pair is an independent fault-injection experiment, so on
// an M-core host the sweep approaches M-fold speedup (Amdahl-limited by the
// final reduction only). On a single-core host it documents the engine's
// overhead instead.

#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "energy/ber_model.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

namespace {

using namespace sparkxd;

double sweep_once(const snn::TrainedModel& model,
                  const error::ErrorInjector& inj,
                  const std::vector<double>& voltages,
                  const energy::BerModel& bm, const data::Dataset& test,
                  std::size_t trials) {
  // Per-voltage forked streams, exactly like core::run_pipeline's sweep.
  const Rng sweep_rng(experiment_seed());
  std::vector<double> acc(voltages.size(), 0.0);
  parallel_for(voltages.size(), [&](std::size_t vi) {
    Rng vrng = sweep_rng.fork(vi);
    acc[vi] = core::evaluate_corrupted(model.net, model.labels, {&inj},
                                       std::min(bm.ber(voltages[vi]), 1e-3),
                                       test, vrng, trials);
  });
  double sum = 0.0;
  for (const double a : acc) sum += a;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparkxd;
  const char* json_path = bench::json_out_path(argc, argv);
  bench::banner("parallel evaluation engine — sweep scaling",
                "per-voltage sweep + fault-injection trials parallelize to "
                ">=2x on >=4 cores with bit-identical results");

  const std::uint64_t seed = experiment_seed();
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const energy::BerModel bm;
  const std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  const std::size_t trials = std::max<std::size_t>(scaled(3), 2);

  const auto cfg = bench::net_config(100);
  const std::size_t n_train = scaled(200, 80);
  const std::size_t n_test = scaled(120, 60);
  const auto all = data::make_dataset(data::Task::kDigits, n_train + n_test,
                                      seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  Rng rng(seed);
  auto model = snn::train_and_label(cfg, train, test, 1, rng);

  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto inj = error::ErrorInjector::for_weights(g, profile, {}, place,
                                                     n_weights, seed, 1e-3);

  const auto timed = [&](const char* threads_env) {
    ::setenv("SPARKXD_THREADS", threads_env, 1);
    (void)sweep_once(model, inj, voltages, bm, test, trials);  // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    const double acc = sweep_once(model, inj, voltages, bm, test, trials);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return std::pair{ms, acc};
  };

  const auto [serial_ms, serial_acc] = timed("1");
  ::unsetenv("SPARKXD_THREADS");
  // At least 4 workers so the threaded path runs even on a 1-core host
  // (there it measures engine overhead rather than speedup).
  const std::size_t hw = std::max<std::size_t>(thread_count(), 4);
  const auto [parallel_ms, parallel_acc] = timed(
      std::to_string(hw).c_str());
  ::unsetenv("SPARKXD_THREADS");

  Table t("parallel_scaling",
          {"threads", "sweep wall [ms]", "speedup", "sweep acc sum"});
  t.add_row({"1", Table::num(serial_ms, 1), "1.00",
             Table::num(serial_acc, 6)});
  t.add_row({std::to_string(hw), Table::num(parallel_ms, 1),
             Table::num(serial_ms / std::max(parallel_ms, 1e-3), 2),
             Table::num(parallel_acc, 6)});
  t.emit();

  const bool identical = serial_acc == parallel_acc;
  std::printf("\nresults bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  if (json_path != nullptr) {
    bench::BenchReport report("parallel_scaling");
    report.add_phase("sweep_serial", 1, serial_ms * 1e6)
        .metrics.emplace_back("acc_sum", serial_acc);
    auto& par = report.add_phase("sweep_parallel", 1, parallel_ms * 1e6);
    par.metrics.emplace_back("acc_sum", parallel_acc);
    par.metrics.emplace_back("workers", static_cast<double>(hw));
    par.metrics.emplace_back("speedup",
                             serial_ms / std::max(parallel_ms, 1e-3));
    if (!report.write(json_path)) return 2;
  }
  const unsigned hw_real = std::max(1u, std::thread::hardware_concurrency());
  std::printf("5 voltages x %zu trials, parallel leg ran %zu workers; "
              "expect >=2x speedup on >=4 cores (this host: %u hardware "
              "thread%s).\n",
              trials, hw, hw_real, hw_real == 1 ? "" : "s");
  return identical ? 0 : 1;
}
