// Model lifecycle: train once, ship everywhere.
//
// Demonstrates the deployment path a downstream user follows:
//   1. train + fault-harden a model (workstation),
//   2. save it to a file (snn::save_model),
//   3. reload it (edge device),
//   4. quantize the weights to uint8 for the DRAM-resident copy, and
//   5. verify accuracy of the reloaded FP32 and quantized models under
//      approximate-DRAM corruption.
//
// Usage: model_lifecycle [path]   (default: ./sparkxd_model.sxdm)

#include <cstdio>

#include "common/env.hpp"
#include "core/fault_aware.hpp"
#include "data/dataset.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/model_io.hpp"
#include "snn/quant.hpp"

int main(int argc, char** argv) {
  using namespace sparkxd;
  const std::string path = argc > 1 ? argv[1] : "sparkxd_model.sxdm";
  const std::uint64_t seed = experiment_seed();
  Rng rng(seed);

  // --- Train + harden (the "workstation" phase). ---------------------------
  const std::size_t n_train = scaled(600, 150), n_test = scaled(200, 60);
  const auto all =
      data::make_dataset(data::Task::kDigits, n_train + n_test, seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  snn::NetworkConfig cfg;
  cfg.n_neurons = 400;
  cfg.seed = seed;
  auto baseline = snn::train_and_label(cfg, train, test, 2, rng);

  const auto geometry = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(geometry, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto placement =
      mapping::baseline_placement_layers(geometry, {n_weights})[0];
  const auto injector = error::ErrorInjector::for_weights(
      geometry, profile, {}, placement, n_weights, seed, 1e-3);
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-7, 1e-5, 1e-3};
  auto hardened =
      core::improve_error_tolerance(baseline, ft, {&injector}, train, test,
                                    rng);
  std::printf("trained: baseline %.1f%%, hardened BER_th %.0e\n",
              100.0 * baseline.clean_accuracy, hardened.ber_th);

  // --- Save / reload. -------------------------------------------------------
  snn::save_model(hardened.improved, path);
  auto shipped = snn::load_model(path);
  std::printf("saved + reloaded '%s' (%zu weights)\n", path.c_str(),
              shipped.net.weights(0).size());

  // --- Quantize for the DRAM-resident copy. ---------------------------------
  auto quant = snn::quantize(shipped.net.weights(0), cfg.n_neurons,
                             cfg.n_inputs);
  std::printf("quantized: %zu B (FP32 was %zu B)\n", quant.size_bytes(),
              shipped.net.weights(0).size() * sizeof(float));

  // --- Verify under corruption at BER 1e-3. ---------------------------------
  const double acc_fp32 = core::evaluate_corrupted(
      shipped.net, shipped.labels, {&injector}, 1e-3, test, rng, 2,
      ft.weight_clip);
  // The quantized copy is 4x smaller, so it has its own (smaller) payload
  // over the same layout.
  const auto quant_frozen =
      error::ErrorInjector(geometry, profile, {}, placement,
                           quant.size_bytes(), seed, 1e-3)
          .freeze(1e-3);
  const auto clean_codes = quant.codes;
  double acc_u8 = 0.0;
  for (int t = 0; t < 2; ++t) {
    quant.codes = clean_codes;
    quant_frozen.inject_bytes(quant.codes.data(), quant.codes.size(), rng);
    const snn::Network decoded(shipped.net.config(), {snn::dequantize(quant)},
                               {shipped.net.thetas(0)});
    acc_u8 += snn::evaluate(decoded, shipped.labels, test, rng) / 2.0;
  }
  std::printf("reloaded FP32 accuracy @BER 1e-3:  %.1f%%\n",
              100.0 * acc_fp32);
  std::printf("quantized uint8 accuracy @BER 1e-3: %.1f%%\n",
              100.0 * acc_u8);
  std::remove(path.c_str());
  return 0;
}
