// Ablation D: FP32 vs uint8 weight storage under approximate DRAM.
//
// EDEN [15] (the paper's error-model source) stores int8 weights; SparkXD
// stores FP32 (§V) and therefore needs load-time range clipping to bound
// exponent-bit damage. This bench quantifies both representations on the
// same trained model and the same weak cells:
//   * FP32, no clipping       — exponent flips are catastrophic
//   * FP32 + range clipping   — the framework's default deployment
//   * uint8 (per-row affine)  — corruption structurally bounded, and 4x
//                               less DRAM traffic on top.

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"
#include "snn/quant.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Ablation — weight storage representation",
                "uint8 storage bounds per-flip damage structurally; FP32 "
                "needs range clipping (EDEN-style) to survive");
  const std::uint64_t seed = experiment_seed();
  const std::size_t neurons = 400;
  const std::size_t n_train = bench::train_samples_for(neurons);
  const std::size_t n_test = bench::test_samples();
  const auto all =
      data::make_dataset(data::Task::kDigits, n_train + n_test, seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  Rng rng(seed);

  const auto cfg = bench::net_config(neurons);
  const auto model = snn::train_and_label(cfg, train, test, 2, rng);

  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto inj_f32 = error::ErrorInjector::for_weights(
      g, profile, {}, place, n_weights, seed, 1e-3);
  // uint8 payload is 4x smaller; it occupies the prefix of the same layout.
  const error::ErrorInjector inj_u8(g, profile, {}, place, n_weights, seed,
                                    1e-3);

  auto quant = snn::quantize(model.net.weights(0), cfg.n_neurons,
                             cfg.n_inputs);
  const auto quant_clean_codes = quant.codes;
  // The model with the stored uint8 weights decoded (trained thresholds).
  const auto decoded = [&] {
    return snn::Network(model.net.config(), {snn::dequantize(quant)},
                        {model.net.thetas(0)});
  };

  Table t("ablation_quantization",
          {"storage", "bytes", "accuracy @BER 1e-4", "accuracy @BER 1e-3"});
  const int trials = 3;

  const auto eval_f32 = [&](double ber, float clip) {
    const auto frozen = inj_f32.freeze(ber);
    double acc = 0.0;
    for (int i = 0; i < trials; ++i) {
      snn::Network trial(model.net);
      frozen.inject(trial.weights_delta(0), rng, {0.0f, clip});
      trial.sync_transpose();
      acc += snn::evaluate(trial, model.labels, test, rng);
    }
    return acc / trials;
  };
  const auto eval_u8 = [&](double ber) {
    const auto frozen = inj_u8.freeze(ber);
    double acc = 0.0;
    for (int i = 0; i < trials; ++i) {
      quant.codes = quant_clean_codes;
      frozen.inject_bytes(quant.codes.data(), quant.codes.size(), rng);
      acc += snn::evaluate(decoded(), model.labels, test, rng);
    }
    return acc / trials;
  };

  t.add_row({"FP32, no clipping", std::to_string(n_weights * 4),
             Table::pct(100.0 * eval_f32(1e-4, 1e30f), 1),
             Table::pct(100.0 * eval_f32(1e-3, 1e30f), 1)});
  t.add_row({"FP32 + clip 0.4", std::to_string(n_weights * 4),
             Table::pct(100.0 * eval_f32(1e-4, 0.4f), 1),
             Table::pct(100.0 * eval_f32(1e-3, 0.4f), 1)});
  t.add_row({"uint8 per-row affine", std::to_string(n_weights),
             Table::pct(100.0 * eval_u8(1e-4), 1),
             Table::pct(100.0 * eval_u8(1e-3), 1)});
  t.emit();

  Table s("ablation_quantization_ref", {"reference", "value"});
  s.add_row({"clean FP32 accuracy",
             Table::pct(100.0 * model.clean_accuracy, 1)});
  quant.codes = quant_clean_codes;
  s.add_row({"clean uint8 accuracy (quantization loss only)",
             Table::pct(100.0 * snn::evaluate(decoded(), model.labels, test,
                                              rng),
                        1)});
  s.emit();
  return 0;
}
