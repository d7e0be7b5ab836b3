// Ablation B: the paper (following EDEN [15]) trains with
// Error Model-0 arguing it approximates Models 1-3. Test that claim: train
// fault-aware with Model-0, then evaluate the improved model under all four
// error models at the same BER.

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Ablation — error models 0-3",
                "a model hardened with Model-0 also tolerates Models 1-3 "
                "(Model-0 approximates the others; paper §III)");
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
  auto baseline = snn::train_and_label(cfg, train, test, 2, rng);
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];

  // Harden with Model-0 (the paper's training configuration).
  const auto train_inj = error::ErrorInjector::for_weights(g, profile, {}, place, n_weights,
                                       seed, 1e-3);
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-7, 1e-5, 1e-3};
  auto improved = core::improve_error_tolerance(baseline, ft, {&train_inj},
                                                train, test, rng);

  Table t("ablation_error_models",
          {"evaluation error model", "baseline acc @BER 1e-3",
           "improved acc @BER 1e-3"});
  for (const auto kind :
       {error::ErrorModelKind::kModel0Uniform,
        error::ErrorModelKind::kModel1Bitline,
        error::ErrorModelKind::kModel2Wordline,
        error::ErrorModelKind::kModel3DataDependent}) {
    error::ErrorModelSpec spec;
    spec.kind = kind;
    const auto eval_inj = error::ErrorInjector::for_weights(g, profile, spec, place, n_weights,
                                        seed, 1e-3);
    const double acc_base = core::evaluate_corrupted(
        baseline.net, baseline.labels, {&eval_inj}, 1e-3, test, rng, 2);
    const double acc_impr = core::evaluate_corrupted(
        improved.improved.net, improved.improved.labels, {&eval_inj}, 1e-3,
        test, rng, 2);
    t.add_row({to_string(kind), Table::pct(100.0 * acc_base, 1),
               Table::pct(100.0 * acc_impr, 1)});
  }
  t.emit();

  Table s("ablation_error_models_ref", {"reference", "value"});
  s.add_row({"baseline accuracy (accurate DRAM)",
             Table::pct(100.0 * baseline.clean_accuracy, 1)});
  s.emit();
  return 0;
}
