#include "core/fault_aware.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sparkxd::core {

void require_weight_clip(float weight_clip) {
  SPARKXD_REQUIRE(std::isfinite(weight_clip) &&
                      weight_clip > snn::StdpParams::w_min,
                  "weight clip must be finite and exceed the weight floor");
}

namespace {

/// Copies every word in `flips` into layer `l`'s transposed layout.
void mirror_flips(snn::Network& net, std::size_t l,
                  const std::vector<error::WeightFlip>& flips) {
  for (const auto& f : flips) net.mirror_weight(l, f.word);
}

/// Reverts layer `l`'s logged flips in both layouts.
void revert_layer(snn::Network& net, std::size_t l,
                  const std::vector<error::WeightFlip>& flips) {
  error::revert_flips(net.weights_delta(l), flips);
  mirror_flips(net, l, flips);
}

}  // namespace

CorruptionScratch::CorruptionScratch(snn::Network net)
    : net_(std::move(net)), state_(net_), flips_(net_.n_layers()) {}

std::size_t CorruptionScratch::corrupt(const LayerTables& tables,
                                       const LayerEcc& ecc,
                                       std::uint64_t inject_seed,
                                       const error::SanitizeRange& clip,
                                       error::EccScrubStats* stats) {
  const std::size_t n_layers = net_.n_layers();
  SPARKXD_REQUIRE(tables.size() == n_layers && ecc.size() == n_layers,
                  "need one table and one ecc slot per network layer");
  std::size_t n_injected = 0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    if (tables[l] == nullptr) continue;
    Rng inject_rng = n_layers == 1
                         ? Rng(inject_seed)
                         : Rng(inject_seed).fork(static_cast<std::uint64_t>(l));
    auto& flips = flips_[l];
    SPARKXD_REQUIRE(flips.empty(), "corrupt() needs a restored copy");
    const std::span<float> w = net_.weights_delta(l);
    const bool protect = ecc[l].scheme != nullptr;
    SPARKXD_REQUIRE(!protect || ecc[l].checks != nullptr,
                    "an ecc-protected layer needs its check words");
    // A protected layer injects raw: the decoder must see the stored bits.
    const std::size_t n = tables[l]->inject(
        w, inject_rng, protect ? error::SanitizeRange::raw() : clip, &flips);
    n_injected += n;
    if (protect) {
      const error::EccScrubStats st = error::ecc_scrub_codewords(
          *ecc[l].scheme, w, *ecc[l].checks, flips, n, clip);
      if (stats != nullptr) stats[l] = st;
    }
    mirror_flips(net_, l, flips);
  }
  return n_injected;
}

void CorruptionScratch::restore() {
  for (std::size_t l = 0; l < flips_.size(); ++l) {
    auto& flips = flips_[l];
    revert_layer(net_, l, flips);
    flips.clear();
  }
}

namespace {

/// evaluate_corrupted_ecc over tables the caller already froze.
double evaluate_frozen(const snn::Network& net,
                       const snn::NeuronLabels& labels,
                       const LayerTables& tables, const LayerEcc& ecc,
                       const data::Dataset& test, Rng& rng,
                       std::size_t trials, float weight_clip,
                       std::vector<EccScrubTotals>* totals) {
  SPARKXD_REQUIRE(trials >= 1, "need at least one evaluation trial");
  const std::size_t n_layers = net.n_layers();
  SPARKXD_REQUIRE(tables.size() == n_layers && ecc.size() == n_layers,
                  "need one injector and one ecc slot per network layer");
  const error::SanitizeRange clip{snn::StdpParams::w_min, weight_clip};
  // One parent draw keys this call's trial substreams: every trial owns an
  // independent Rng pair and every worker a private corruptible weight
  // copy, so trials run concurrently and the mean is bit-identical at any
  // thread count. Injection and evaluation draw from *separate* substreams
  // (common random numbers): the spike trains are then identical across
  // BERs for the same parent state, so accuracy differences measure the
  // injected errors, not resampling noise.
  const std::uint64_t stream = rng.next_u64();
  std::vector<double> accs(trials, 0.0);
  // Per-(trial, layer) scrub slots keep the reduction order deterministic
  // regardless of which worker ran which trial.
  std::vector<error::EccScrubStats> trial_stats(
      totals != nullptr ? trials * n_layers : 0);
  parallel_for_chunks(
      trials, [&](std::size_t begin, std::size_t end, std::size_t) {
        // One corruptible copy per worker; between trials only the recorded
        // flips are reverted. The copy carries the configured inference
        // engine (event/event-fx) along, so the whole Monte-Carlo
        // fan-out runs whichever kernel the PipelineConfig selected.
        CorruptionScratch scratch(net);
        for (std::size_t t = begin; t < end; ++t) {
          Rng eval_rng(hash_combine(stream, 2 * t + 1));
          scratch.corrupt(tables, ecc, hash_combine(stream, 2 * t), clip,
                          totals != nullptr ? &trial_stats[t * n_layers]
                                            : nullptr);
          accs[t] = snn::evaluate(scratch.net(), scratch.state(), labels,
                                  test, eval_rng);
          scratch.restore();
        }
      });
  double acc_sum = 0.0;
  for (const double a : accs) acc_sum += a;
  if (totals != nullptr) {
    totals->assign(n_layers, EccScrubTotals{});
    for (std::size_t t = 0; t < trials; ++t)
      for (std::size_t l = 0; l < n_layers; ++l)
        (*totals)[l] += trial_stats[t * n_layers + l];
  }
  return acc_sum / static_cast<double>(trials);
}

/// Freezes every non-null injector at `ber`; `tables` receives pointers
/// into `frozen`.
void freeze_layers(const LayerInjectors& injectors, double ber,
                   std::vector<error::FrozenInjection>& frozen,
                   LayerTables& tables) {
  frozen.assign(injectors.size(), {});
  tables.assign(injectors.size(), nullptr);
  for (std::size_t l = 0; l < injectors.size(); ++l) {
    if (injectors[l] == nullptr) continue;
    frozen[l] = injectors[l]->freeze(ber);
    tables[l] = &frozen[l];
  }
}

}  // namespace

double evaluate_corrupted_ecc(const snn::Network& net,
                              const snn::NeuronLabels& labels,
                              const LayerInjectors& injectors,
                              const LayerEcc& ecc, double ber,
                              const data::Dataset& test, Rng& rng,
                              std::size_t trials, float weight_clip,
                              std::vector<EccScrubTotals>* totals) {
  require_weight_clip(weight_clip);
  // The flip candidates at this BER are the same for every trial: freeze
  // them once per corrupted layer and share the tables read-only across
  // the whole fan-out.
  std::vector<error::FrozenInjection> frozen;
  LayerTables tables;
  freeze_layers(injectors, ber, frozen, tables);
  return evaluate_frozen(net, labels, tables, ecc, test, rng, trials,
                         weight_clip, totals);
}

double evaluate_corrupted(const snn::Network& net,
                          const snn::NeuronLabels& labels,
                          const LayerInjectors& injectors, double ber,
                          const data::Dataset& test, Rng& rng,
                          std::size_t trials, float weight_clip) {
  return evaluate_corrupted_ecc(net, labels, injectors,
                                LayerEcc(net.n_layers()), ber, test, rng,
                                trials, weight_clip);
}

FaultAwareResult improve_error_tolerance(const snn::TrainedModel& baseline,
                                         const FaultTrainingConfig& cfg,
                                         const LayerInjectors& injectors,
                                         const data::Dataset& train,
                                         const data::Dataset& test, Rng& rng) {
  SPARKXD_REQUIRE(!cfg.ber_stages.empty(), "need at least one BER stage");
  SPARKXD_REQUIRE(std::is_sorted(cfg.ber_stages.begin(), cfg.ber_stages.end()),
                  "BER stages must be ascending (Algorithm 1 raises the BER)");
  const std::size_t n_layers = baseline.net.n_layers();
  SPARKXD_REQUIRE(injectors.size() == n_layers,
                  "need one injector slot per network layer");

  const double target = baseline.clean_accuracy - cfg.accuracy_bound;
  const error::SanitizeRange sanitize{snn::StdpParams::w_min,
                                      cfg.weight_clip};
  std::vector<error::FrozenInjection> frozen;
  LayerTables tables;
  // model_temp starts as a copy of the baseline (Algorithm 1 line 1).
  snn::TrainedModel model_temp = baseline;
  std::vector<std::vector<error::WeightFlip>> flips(n_layers);
  const auto inject_all = [&] {
    // Layers draw serially from the caller's generator, input side first;
    // each layer's flip log mirrors the injection into its transpose and
    // lets the calibration pass revert it.
    for (std::size_t l = 0; l < n_layers; ++l) {
      if (tables[l] == nullptr) continue;
      flips[l].clear();
      tables[l]->inject(model_temp.net.weights_delta(l), rng, sanitize,
                        &flips[l]);
      mirror_flips(model_temp.net, l, flips[l]);
    }
  };
  FaultAwareResult result{baseline, 0.0, false, {}};

  for (const double rate : cfg.ber_stages) {
    // The weak cells at this stage's rate are fixed: one table per layer
    // serves every injection of the stage.
    freeze_layers(injectors, rate, frozen, tables);
    // Error generation + injection into the stored weights (lines 3-4):
    // one training epoch then runs on the corrupted weights, and STDP
    // re-routes weight mass away from unreliable cells — in every layer.
    inject_all();
    snn::train_epoch(model_temp.net, train, rng);
    // Re-label (receptive fields move during retraining). The calibration
    // pass (neuron labels + bias) runs on corrupted weights, as it would on
    // the deployed approximate DRAM — neurons inflated by their weak cells
    // then carry a high bias and are discounted by the vote at inference.
    // Labelling leaves the weights alone, so reverting the flip log
    // restores them exactly.
    inject_all();
    model_temp.labels = snn::label_neurons(model_temp.net, train, rng);
    for (std::size_t l = 0; l < n_layers; ++l)
      revert_layer(model_temp.net, l, flips[l]);
    // Test under corruption at this stage's rate (lines 8-9).
    const double acc = evaluate_frozen(
        model_temp.net, model_temp.labels, tables, LayerEcc(n_layers), test,
        rng, cfg.eval_trials, cfg.weight_clip, nullptr);
    result.stage_curve.push_back({rate, acc});
    // Lines 10-13: accept this stage if it still meets the target.
    if (acc >= target) {
      result.improved = model_temp;
      result.improved.clean_accuracy = acc;
      result.ber_th = rate;
      result.met_target = true;
    }
  }
  // If no stage met the bound, return the last trained model with ber_th 0
  // (callers check met_target).
  if (!result.met_target) result.improved = model_temp;
  return result;
}

std::vector<ToleranceAnalysis> analyze_layer_tolerance(
    const snn::Network& net, const snn::NeuronLabels& labels,
    const LayerInjectors& injectors, const std::vector<double>& rates,
    double target_accuracy, const data::Dataset& test, Rng& rng,
    std::size_t trials, float weight_clip) {
  SPARKXD_REQUIRE(std::is_sorted(rates.begin(), rates.end()),
                  "linear search expects ascending BER values");
  const std::size_t n_layers = net.n_layers();
  SPARKXD_REQUIRE(injectors.size() == n_layers,
                  "need one injector per network layer");
  for (const auto* inj : injectors)
    SPARKXD_REQUIRE(inj != nullptr,
                    "per-layer tolerance analysis needs every layer's "
                    "injector populated");

  std::vector<ToleranceAnalysis> out(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    // Corrupt ONLY layer l: the difference from the clean accuracy is this
    // layer's own contribution to the error budget.
    LayerInjectors solo(n_layers, nullptr);
    solo[l] = injectors[l];
    for (const double ber : rates) {
      const double acc = evaluate_corrupted(net, labels, solo, ber, test, rng,
                                            trials, weight_clip);
      out[l].curve.push_back({ber, acc});
      if (acc >= target_accuracy) {
        out[l].ber_th = ber;
        out[l].met_target = true;
      }
    }
  }
  return out;
}

}  // namespace sparkxd::core
