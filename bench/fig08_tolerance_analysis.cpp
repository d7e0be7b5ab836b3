// Fig. 8: error-tolerance analysis of an improved N900 model — the
// accuracy-vs-BER curve is (generally) decreasing, so a linear search finds
// the maximum tolerable BER (BER_th) that still meets the minimum target
// accuracy (baseline accuracy - 1%).

#include "bench_common.hpp"
#include "error/injector.hpp"
#include "mapping/mapping.hpp"

int main() {
  using namespace sparkxd;
  bench::banner("Fig. 8 — tolerance analysis (N900)",
                "error-tolerance curve is generally decreasing; linear "
                "search finds BER_th meeting the accuracy target");
  const std::uint64_t seed = experiment_seed();
  const std::size_t neurons = 900;
  const std::size_t n_train = bench::train_samples_for(neurons);
  const std::size_t n_test = bench::test_samples();
  const auto all =
      data::make_dataset(data::Task::kDigits, n_train + n_test, seed);
  const auto train = all.take(n_train);
  const auto test = all.drop(n_train);
  Rng rng(seed);

  // Baseline + fault-aware improvement (Algorithm 1).
  const auto cfg = bench::net_config(neurons);
  auto baseline = snn::train_and_label(cfg, train, test, 2, rng);
  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, seed);
  const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
  const auto place = mapping::baseline_placement_layers(g, {n_weights})[0];
  const auto injector = error::ErrorInjector::for_weights(g, profile, {}, place, n_weights, seed,
                                      1e-3);
  core::FaultTrainingConfig ft;
  ft.ber_stages = {1e-7, 1e-5, 1e-3};
  const core::LayerInjectors injectors{&injector};
  auto improved =
      core::improve_error_tolerance(baseline, ft, injectors, train, test, rng);

  // §IV-C linear search over the BER grid for both models.
  const double target = baseline.clean_accuracy - ft.accuracy_bound;
  const auto base_curve = core::analyze_layer_tolerance(
      baseline.net, baseline.labels, injectors, bench::kPlotBers, target, test,
      rng, 2)[0];
  const auto impr_curve = core::analyze_layer_tolerance(
      improved.improved.net, improved.improved.labels, injectors,
      bench::kPlotBers, target, test, rng, 2)[0];

  Table t("fig08_tolerance_analysis",
          {"BER", "baseline + approx DRAM", "improved + approx DRAM",
           "meets target?"});
  for (std::size_t i = 0; i < bench::kPlotBers.size(); ++i) {
    t.add_row({Table::sci(bench::kPlotBers[i]),
               Table::pct(100.0 * base_curve.curve[i].accuracy, 1),
               Table::pct(100.0 * impr_curve.curve[i].accuracy, 1),
               impr_curve.curve[i].accuracy >= target ? "yes" : "no"});
  }
  t.emit();

  Table s("fig08_summary", {"quantity", "value"});
  s.add_row({"baseline accuracy (accurate DRAM)",
             Table::pct(100.0 * baseline.clean_accuracy, 1)});
  s.add_row({"minimum target accuracy", Table::pct(100.0 * target, 1)});
  s.add_row({"maximum tolerable BER (BER_th)",
             impr_curve.met_target ? Table::sci(impr_curve.ber_th)
                                   : "none"});
  s.emit();
  return 0;
}
