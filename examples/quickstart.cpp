// Quickstart: the SparkXD story in one page.
//
// 1. Train a small unsupervised SNN on the synthetic digit task.
// 2. Corrupt its DRAM-resident weights at a high bit-error rate (the
//    voltage-scaled "approximate DRAM") and watch the accuracy drop.
// 3. Run fault-aware retraining (Algorithm 1) and watch the accuracy under
//    the same corruption recover to within the target bound.
//
// Build: cmake --build build --target quickstart
// Run:   ./build/examples/quickstart        (SPARKXD_SCALE=2 for more data)

#include <cstdio>

#include "common/env.hpp"
#include "core/fault_aware.hpp"
#include "data/dataset.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/trainer.hpp"

int main() {
  using namespace sparkxd;
  const std::uint64_t seed = experiment_seed();
  Rng rng(seed);

  // --- Dataset: synthetic 28x28 digits (MNIST stand-in). -------------------
  const std::size_t n_train = scaled(600, 100);
  const std::size_t n_test = scaled(200, 50);
  const auto all = data::make_dataset(data::Task::kDigits, n_train + n_test,
                                      seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  std::printf("dataset: %zu train / %zu test samples (%s)\n", train.size(),
              test.size(), train.name.c_str());

  // --- Baseline: 400-neuron network, accurate DRAM. ------------------------
  snn::NetworkConfig cfg;
  cfg.n_neurons = 400;
  cfg.seed = seed;
  auto baseline = snn::train_and_label(cfg, train, test, /*epochs=*/2, rng);
  std::printf("baseline accuracy (accurate DRAM):      %.1f%%\n",
              100.0 * baseline.clean_accuracy);

  // --- Approximate DRAM at BER 1e-3 corrupts the stored weights. -----------
  const auto geometry = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(geometry, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto placement =
      mapping::baseline_placement_layers(geometry, {n_weights})[0];
  const double ber = 1e-3;
  const auto injector = error::ErrorInjector::for_weights(geometry, profile, {}, placement,
                                      n_weights, seed, ber);
  const core::LayerInjectors injectors{&injector};  // one per network layer
  const double corrupted_acc = core::evaluate_corrupted(
      baseline.net, baseline.labels, injectors, ber, test, rng);
  std::printf("baseline accuracy @ BER 1e-3:           %.1f%%\n",
              100.0 * corrupted_acc);

  // --- SparkXD fault-aware retraining (Algorithm 1). -----------------------
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-7, 1e-5, 1e-3};
  auto improved = core::improve_error_tolerance(baseline, ft, injectors,
                                                train, test, rng);
  const double improved_acc = core::evaluate_corrupted(
      improved.improved.net, improved.improved.labels, injectors, ber, test,
      rng);
  std::printf("improved accuracy @ BER 1e-3 (SparkXD): %.1f%%\n",
              100.0 * improved_acc);
  std::printf("maximum tolerable BER (BER_th):         %.0e (target met: %s)\n",
              improved.ber_th, improved.met_target ? "yes" : "no");
  return 0;
}
