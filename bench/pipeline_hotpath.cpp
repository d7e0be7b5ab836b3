// pipeline_hotpath — a phase-timing bench of the pipeline. The repository's
// benchmark with regression bounds is perfbench/ (see BENCHMARK.json).
//
// Times the SparkXD pipeline's phases separately — baseline training,
// fault-aware training, the DRAM energy sweep, and the Monte-Carlo
// corrupted-accuracy phase (core::evaluate_corrupted: frozen candidate
// table shared across trials, flip-log revert, transposed spike gather,
// reused per-worker inference scratch) — and emits the stable
// sparkxd-bench-v1 JSON report (CI archives it as pipeline_hotpath.json)
// so hot-path wins are tracked by machines, not commit messages. The
// bit-exactness of the Monte-Carlo phase against a snapshot-restore
// reference loop is a test (tests/core_test.cpp), not a bench concern.
// Runs at 1 thread so the numbers are comparable across CI hosts.
//
//   pipeline_hotpath [--json pipeline_hotpath.json]
//
// Honours SPARKXD_SCALE / SPARKXD_SEED. Exit codes: 0 ok, 2 bad usage.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

namespace {

using namespace sparkxd;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_out_path(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      ++i;  // value consumed by json_out_path
    } else {
      std::fprintf(stderr, "pipeline_hotpath: unknown option '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  // Pin one worker so the absolute numbers are comparable across CI hosts.
  ::setenv("SPARKXD_THREADS", "1", 1);
  bench::banner("pipeline hot-path phase timings",
                "per-phase wall clock of training, Algorithm 1, the energy "
                "sweep and the Monte-Carlo corrupted-accuracy phase");

  const std::uint64_t seed = experiment_seed();
  const auto cfg = bench::net_config(200);
  const std::size_t n_train = scaled(220, 100);
  const std::size_t n_test = scaled(80, 50);
  const std::size_t trials = std::max<std::size_t>(scaled(8), 4);

  // --- train ---------------------------------------------------------------
  const auto all = data::make_dataset(data::Task::kDigits, n_train + n_test,
                                      seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  Rng rng(seed);
  const auto t0 = Clock::now();
  auto model = snn::train_and_label(cfg, train, test, 1, rng);
  const auto t1 = Clock::now();

  // --- fault training (Algorithm 1, short schedule) ------------------------
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto injector = error::ErrorInjector::for_weights(
      g, profile, {}, place, n_weights, seed, 1e-3);
  const core::LayerInjectors injectors{&injector};
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-5, 1e-4, 1e-3};
  const auto t2 = Clock::now();
  const auto fa = core::improve_error_tolerance(model, ft, injectors, train,
                                                test, rng);
  const auto t3 = Clock::now();

  // --- DRAM energy sweep ---------------------------------------------------
  const std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  const auto t4 = Clock::now();
  double energy_sum = 0.0;
  for (const double v : voltages)
    energy_sum +=
        core::weight_stream_energy(g, place, n_weights, v).energy.total_nj();
  const auto t5 = Clock::now();

  // --- Monte-Carlo phase ----------------------------------------------------
  const double ber = 1e-3;
  Rng warm(7);
  (void)core::evaluate_corrupted(model.net, model.labels, injectors, ber, test,
                                 warm, 2);  // page in weights + caches
  Rng mc_rng(7);
  const auto t6 = Clock::now();
  const double mc_acc = core::evaluate_corrupted(model.net, model.labels,
                                                 injectors, ber, test, mc_rng,
                                                 trials);
  const auto t7 = Clock::now();
  const double mc_ns = ns_between(t6, t7);

  Table t("pipeline_hotpath",
          {"phase", "reps", "total [ms]", "ns/rep"});
  const auto row = [&](const char* name, std::size_t reps, double ns) {
    t.add_row({name, std::to_string(reps), Table::num(ns / 1e6, 1),
               Table::num(ns / static_cast<double>(reps), 0)});
  };
  row("train", 1, ns_between(t0, t1));
  row("fault_training", 1, ns_between(t2, t3));
  row("sweep", voltages.size(), ns_between(t4, t5));
  row("monte_carlo", trials, mc_ns);
  t.emit();

  bench::BenchReport report("pipeline_hotpath");
  report.add_phase("train", 1, ns_between(t0, t1));
  auto& ftp = report.add_phase("fault_training", 1, ns_between(t2, t3));
  ftp.metrics.emplace_back("ber_th", fa.ber_th);
  report.add_phase("sweep", voltages.size(), ns_between(t4, t5))
      .metrics.emplace_back("energy_nj_sum", energy_sum);
  auto& mc = report.add_phase("monte_carlo", trials, mc_ns);
  mc.metrics.emplace_back("ns_per_trial", mc_ns / static_cast<double>(trials));
  mc.metrics.emplace_back("accuracy", mc_acc);
  if (json_path != nullptr && !report.write(json_path)) return 2;
  return 0;
}
