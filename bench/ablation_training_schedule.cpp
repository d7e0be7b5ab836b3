// Ablation C: what the *incremental* BER schedule of
// Algorithm 1 buys. All variants get the same total number of training
// epochs (5), so differences are attributable to the schedule, not to
// extra training:
//   * none        — 5 clean epochs (no fault awareness)
//   * direct-max  — 2 clean + 3 epochs at the maximum BER immediately
//   * incremental — 2 clean + 1 epoch each at 1e-7 -> 1e-5 -> 1e-3 (paper)

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Ablation — fault-aware training schedule",
                "Algorithm 1 raises the BER incrementally (10x per stage); "
                "compare against no fault training and direct-max training");
  const std::uint64_t seed = experiment_seed();
  const std::size_t neurons = 400;
  const std::size_t n_train = bench::train_samples_for(neurons);
  const std::size_t n_test = bench::test_samples();
  const auto all =
      data::make_dataset(data::Task::kDigits, n_train + n_test, seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);

  const auto cfg = bench::net_config(neurons);
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto injector = error::ErrorInjector::for_weights(g, profile, {}, place, n_weights, seed,
                                      1e-3);

  core::FaultTrainingConfig ft;  // for clip / calibration defaults
  const auto ft_with = [](const std::vector<double>& stages) {
    core::FaultTrainingConfig c;
    c.ber_stages = stages;
    return c;
  };

  const auto run_variant = [&](const std::vector<double>& stages) {
    Rng rng(seed);
    auto model = snn::train_and_label(cfg, train, test, 2, rng);
    const double clean_before = model.clean_accuracy;
    if (!stages.empty()) {
      auto improved = core::improve_error_tolerance(model, ft_with(stages),
                                                    {&injector}, train, test,
                                                    rng);
      model = improved.improved;
    } else {
      for (int e = 0; e < 3; ++e) snn::train_epoch(model.net, train, rng);
      model.labels = snn::label_neurons(model.net, train, rng);
    }
    struct Out {
      double clean_before, clean_after, corrupted;
    } out{};
    out.clean_before = clean_before;
    out.clean_after = snn::evaluate(model.net, model.labels, test, rng);
    out.corrupted = core::evaluate_corrupted(model.net, model.labels,
                                             {&injector}, 1e-3, test, rng, 3,
                                             ft.weight_clip);
    return out;
  };

  Table t("ablation_training_schedule",
          {"schedule", "clean acc after", "corrupted acc @1e-3",
           "drop vs own clean [pp]"});
  const auto add = [&](const char* name, const std::vector<double>& stages) {
    const auto o = run_variant(stages);
    t.add_row({name, Table::pct(100.0 * o.clean_after, 1),
               Table::pct(100.0 * o.corrupted, 1),
               Table::num(100.0 * (o.clean_after - o.corrupted), 2)});
  };
  add("none (5 clean epochs)", {});
  add("direct-max (3 epochs @1e-3)", {1e-3, 1e-3, 1e-3});
  add("incremental (1e-7/1e-5/1e-3)", {1e-7, 1e-5, 1e-3});
  t.emit();
  return 0;
}
