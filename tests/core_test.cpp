// Tests for the SparkXD core: corrupted evaluation, Algorithm 1 (fault-aware
// training), tolerance analysis (§IV-C), and the end-to-end pipeline.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/fault_aware.hpp"
#include "core/pipeline.hpp"
#include "mapping/mapping.hpp"
#include "snn/model_io.hpp"

namespace sparkxd::core {
namespace {

/// Shared expensive fixture: one trained baseline + injector, reused by all
/// Algorithm-1 tests in this binary.
class FaultAwareFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state = new State();
    state->all = data::make_dataset(data::Task::kDigits, 550, 42);
    state->train = state->all.take(400);
    state->test = state->all.drop(400);
    snn::NetworkConfig cfg;
    cfg.n_neurons = 100;
    cfg.seed = 42;
    Rng rng(42);
    state->baseline = std::make_unique<snn::TrainedModel>(
        snn::train_and_label(cfg, state->train, state->test, 2, rng));
    state->geometry = dram::Geometry::lpddr3_4gb();
    state->profile =
        std::make_unique<error::SubarrayProfile>(state->geometry, 42);
    const std::size_t n_weights = cfg.n_inputs * cfg.n_neurons;
    state->placement =
        mapping::baseline_placement_layers(state->geometry, {n_weights})[0];
    state->injector = std::make_unique<error::ErrorInjector>(
        state->geometry, *state->profile, error::ErrorModelSpec{},
        state->placement, n_weights, 42, 1e-3);
    state->injectors = {state->injector.get()};
  }
  static void TearDownTestSuite() {
    delete state;
    state = nullptr;
  }

  struct State {
    data::Dataset all, train, test;
    std::unique_ptr<snn::TrainedModel> baseline;
    dram::Geometry geometry;
    std::unique_ptr<error::SubarrayProfile> profile;
    error::ChunkPlacement placement;
    std::unique_ptr<error::ErrorInjector> injector;
    LayerInjectors injectors;  ///< {injector}: the one-layer stack's list
  };
  static State* state;
};

FaultAwareFixture::State* FaultAwareFixture::state = nullptr;

TEST_F(FaultAwareFixture, EvaluateCorruptedRestoresWeights) {
  Rng rng(1);
  const auto before = state->baseline->net.weights(0);
  (void)evaluate_corrupted(state->baseline->net, state->baseline->labels,
                           state->injectors, 1e-3, state->test, rng);
  EXPECT_EQ(state->baseline->net.weights(0), before);
}

TEST_F(FaultAwareFixture, EvaluateCorruptedZeroBerEqualsClean) {
  // At BER 0 no bits flip, so the result must be reproducible per seed,
  // independent of which injector produced it, and equal to the clean
  // accuracy up to spike-train sampling noise (injection and evaluation use
  // separate Rng substreams, so the clean reference uses its own stream).
  Rng a(2), b(2), c(2);
  const double clean =
      snn::evaluate(state->baseline->net, state->baseline->labels,
                    state->test, a);
  const double corrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, b);
  const double again =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, c);
  EXPECT_DOUBLE_EQ(corrupted, again);
  EXPECT_NEAR(clean, corrupted, 0.05);
}

TEST_F(FaultAwareFixture, HighBerDegradesBaseline) {
  // Common random numbers: with same-seeded parents the BER-0 and BER-1e-3
  // evaluations see identical spike trains, so the comparison isolates the
  // effect of the injected errors (small upward flukes from lucky flips
  // are still possible, hence the slack).
  Rng zero_rng(3), high_rng(3);
  const double uncorrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 0.0, state->test, zero_rng, 2);
  const double corrupted =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, 1e-3, state->test, high_rng, 2);
  EXPECT_LT(corrupted, uncorrupted + 0.02);
}

TEST_F(FaultAwareFixture, HotPathMatchesLegacySnapshotLoopBitwise) {
  // The optimized Monte-Carlo path (CorruptionScratch: frozen table +
  // delta-revert + reused inference scratch) against an independent
  // reference loop: full snapshot restore per trial + a test-local flip
  // loop over the table entries + a fresh evaluation each time. Stream
  // derivation is the documented contract (stream = rng.next_u64(); trial
  // t draws hash_combine(stream, 2t) / (2t+1)), so the means must agree
  // bit for bit.
  const std::size_t trials = 3;
  const double ber = 1e-3;
  Rng fast_rng(21), ref_rng(21);
  const double fast =
      evaluate_corrupted(state->baseline->net, state->baseline->labels,
                         state->injectors, ber, state->test, fast_rng,
                         trials);
  const error::SanitizeRange sanitize{
      state->baseline->net.config().stdp.w_min, kDefaultWeightClip};
  const std::uint64_t stream = ref_rng.next_u64();
  const snn::Network& clean = state->baseline->net;
  const std::vector<float> snapshot = clean.weights(0);
  const auto entries = state->injector->freeze(ber).entries();
  double sum = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    Rng inject_rng(hash_combine(stream, 2 * t));
    Rng eval_rng(hash_combine(stream, 2 * t + 1));
    // Test-local flip loop: Model-0 weak cells fail with probability 0.5,
    // one draw per table entry, each flipped word range-clipped.
    std::vector<float> w = snapshot;
    for (const auto& e : entries) {
      if (!inject_rng.bernoulli(error::kWeakCellFailProb)) continue;
      w[e.word] = flip_float_bit(w[e.word], e.bit);
      error::sanitize_weight(w[e.word], sanitize);
    }
    const snn::Network flipped(clean.config(), {std::move(w)},
                               {clean.thetas(0)});
    sum += snn::evaluate(flipped, state->baseline->labels, state->test,
                         eval_rng);
  }
  const double reference = sum / static_cast<double>(trials);
  EXPECT_EQ(fast, reference);  // bitwise, not approximately
}

// ------------------------------------------------------ CorruptionScratch

/// Bitwise equality (tells -0.0 from 0.0, compares NaN payloads).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// corrupt() then restore() on a fresh network of the given depth, with
/// SECDED on the output layer when `with_ecc`: while corrupted the
/// transposed copy must mirror the row-major weights, and after restore
/// both layouts of every layer must be bitwise the source network's.
void expect_round_trip(const std::vector<std::size_t>& hidden,
                       bool with_ecc) {
  snn::NetworkConfig cfg;
  cfg.n_inputs = 64;
  cfg.n_neurons = 10;
  cfg.hidden_neurons = hidden;
  cfg.seed = 7;
  snn::Network source(cfg);
  const std::size_t n_layers = source.n_layers();

  const auto g = dram::Geometry::lpddr3_4gb();
  const error::SubarrayProfile profile(g, 42);
  std::vector<std::size_t> layer_weights;
  for (std::size_t l = 0; l < n_layers; ++l)
    layer_weights.push_back(cfg.layer_weight_count(l));
  const auto placements = mapping::baseline_placement_layers(g, layer_weights);
  const double ber = 1e-2;
  std::vector<error::FrozenInjection> frozen;
  for (std::size_t l = 0; l < n_layers; ++l)
    frozen.push_back(error::ErrorInjector::for_weights(
                         g, profile, {}, placements[l], layer_weights[l], 42,
                         ber)
                         .freeze(ber));
  LayerTables tables;
  for (const auto& f : frozen) tables.push_back(&f);

  error::EccSpec spec;
  spec.kind = error::EccKind::kSecded;
  const auto scheme = error::make_ecc_scheme(spec);
  const std::vector<std::uint64_t> checks =
      error::ecc_encode_buffer(*scheme, source.weights(n_layers - 1));
  LayerEcc ecc(n_layers);
  if (with_ecc) ecc.back() = {scheme.get(), &checks};

  const error::SanitizeRange clip{cfg.stdp.w_min, kDefaultWeightClip};
  CorruptionScratch scratch(source);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<error::EccScrubStats> stats(n_layers);
    EXPECT_GT(scratch.corrupt(tables, ecc, seed, clip, stats.data()), 0u);
    snn::Network resynced = scratch.net();
    resynced.sync_transpose();
    for (std::size_t l = 0; l < n_layers; ++l) {
      EXPECT_FALSE(same_bits(scratch.net().weights(l), source.weights(l)))
          << "layer " << l << " was not corrupted";
      EXPECT_TRUE(same_bits(scratch.net().weights_T(l),
                            resynced.weights_T(l)))
          << "layer " << l << " transpose does not mirror the corruption";
    }
    if (with_ecc) {
      EXPECT_GT(stats.back().corrected, 0u);
    }
    scratch.restore();
    for (std::size_t l = 0; l < n_layers; ++l) {
      EXPECT_TRUE(same_bits(scratch.net().weights(l), source.weights(l)))
          << "layer " << l << " seed " << seed;
      EXPECT_TRUE(same_bits(scratch.net().weights_T(l), source.weights_T(l)))
          << "layer " << l << " seed " << seed;
    }
  }
  // A second corrupt() before restore() would double-log: refused.
  (void)scratch.corrupt(tables, ecc, 9, clip);
  EXPECT_THROW((void)scratch.corrupt(tables, ecc, 9, clip),
               ContractViolation);
}

TEST(CorruptionScratch_, RoundTripOneLayer) { expect_round_trip({}, false); }

TEST(CorruptionScratch_, RoundTripOneLayerWithEcc) {
  expect_round_trip({}, true);
}

TEST(CorruptionScratch_, RoundTripThreeLayers) {
  expect_round_trip({24, 16}, false);
}

TEST(CorruptionScratch_, RoundTripThreeLayersWithEcc) {
  expect_round_trip({24, 16}, true);
}

// ------------------------------------------------------ layout invariant

/// Fails unless every layer's transposed copy is exactly the transpose of
/// its row-major weights.
void expect_layouts_agree(const snn::Network& net, const char* after) {
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    const std::vector<float>& w = net.weights(l);
    const std::size_t ni = net.config().layer_inputs(l);
    const std::size_t nn = net.config().layer_neurons(l);
    ASSERT_EQ(w.size(), ni * nn) << after << ": layer " << l;
    std::vector<float> want(w.size());
    for (std::size_t n = 0; n < nn; ++n)
      for (std::size_t i = 0; i < ni; ++i) want[i * nn + n] = w[n * ni + i];
    EXPECT_TRUE(same_bits(net.weights_T(l), want))
        << after << ": layer " << l << " of " << net.n_layers();
  }
}

TEST(LayoutInvariant, BothLayoutsAgreeAfterEveryWrite) {
  const auto all = data::make_dataset(data::Task::kDigits, 30, 11);
  const auto train = all.take(20);
  const auto test = all.drop(20);
  const std::vector<std::vector<std::size_t>> stacks{{}, {16}, {16, 12}};
  for (const auto& hidden : stacks) {
    SCOPED_TRACE(testing::Message() << "depth " << hidden.size() + 1);
    snn::NetworkConfig cfg;
    cfg.n_neurons = 10;
    cfg.hidden_neurons = hidden;
    cfg.seed = 3;
    Rng rng(3);
    snn::Network net(cfg);
    expect_layouts_agree(net, "construction");
    (void)net.train_step(train.images[0], rng);
    expect_layouts_agree(net, "train_step");
    const std::size_t n_layers = net.n_layers();
    std::vector<std::vector<float>> weights, thetas;
    for (std::size_t l = 0; l < n_layers; ++l) {
      std::vector<float>& w = weights.emplace_back(net.weights(l));
      for (std::size_t k = 0; k < w.size(); k += 7) w[k] *= 2.5f;
      thetas.push_back(net.thetas(l));
    }
    net = snn::Network(cfg, std::move(weights), std::move(thetas));
    expect_layouts_agree(net, "constructed from parameters");
    net.normalize_rows();
    expect_layouts_agree(net, "normalize_rows");
    for (std::size_t l = 0; l < n_layers; ++l) {
      const std::span<float> w = net.weights_delta(l);
      for (std::size_t k = l; k < w.size(); k += 13) {
        w[k] = 0.5f * w[k] + 0.01f;
        net.mirror_weight(l, k);
      }
    }
    expect_layouts_agree(net, "weights_delta + mirror_weight");

    snn::TrainedModel model{net, snn::label_neurons(net, train, rng), 0.0};
    expect_layouts_agree(model.net, "label_neurons");
    std::stringstream file;
    snn::save_model(model, file);
    expect_layouts_agree(snn::load_model(file).net, "load_model");

    const auto g = dram::Geometry::lpddr3_4gb();
    const error::SubarrayProfile profile(g, 5);
    std::vector<std::size_t> layer_weights;
    for (std::size_t l = 0; l < n_layers; ++l)
      layer_weights.push_back(cfg.layer_weight_count(l));
    const auto placements =
        mapping::baseline_placement_layers(g, layer_weights);
    std::vector<error::ErrorInjector> injectors;
    for (std::size_t l = 0; l < n_layers; ++l)
      injectors.push_back(error::ErrorInjector::for_weights(
          g, profile, {}, placements[l], layer_weights[l], 5, 1e-2));
    std::vector<error::FrozenInjection> frozen;
    LayerTables tables;
    LayerInjectors layer_injectors;
    for (const auto& inj : injectors) {
      frozen.push_back(inj.freeze(1e-2));
      layer_injectors.push_back(&inj);
    }
    for (const auto& f : frozen) tables.push_back(&f);

    CorruptionScratch scratch(net);
    EXPECT_GT(scratch.corrupt(tables, LayerEcc(n_layers), 1,
                              {cfg.stdp.w_min, kDefaultWeightClip}),
              0u);
    expect_layouts_agree(scratch.net(), "CorruptionScratch::corrupt");
    scratch.restore();
    expect_layouts_agree(scratch.net(), "CorruptionScratch::restore");

    FaultTrainingConfig ft;
    ft.ber_stages = {1e-3, 1e-2};
    const FaultAwareResult result = improve_error_tolerance(
        model, ft, layer_injectors, train, test, rng);
    expect_layouts_agree(result.improved.net, "improve_error_tolerance");
  }
}

TEST_F(FaultAwareFixture, RejectsZeroTrials) {
  Rng rng(4);
  EXPECT_THROW(
      (void)evaluate_corrupted(state->baseline->net,
                               state->baseline->labels, state->injectors,
                               1e-3, state->test, rng, 0),
      ContractViolation);
}

TEST_F(FaultAwareFixture, Algorithm1ImprovesCorruptedAccuracy) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {1e-7, 1e-5, 1e-3};
  Rng rng(5);
  const auto result = improve_error_tolerance(
      *state->baseline, cfg, state->injectors, state->train, state->test,
      rng);
  ASSERT_TRUE(result.met_target);
  EXPECT_EQ(result.stage_curve.size(), 3u);
  // The improved model under corruption at BER_th meets the paper's bound.
  Rng eval_rng(6);
  auto improved = result.improved;
  const double acc = evaluate_corrupted(improved.net, improved.labels,
                                        state->injectors, result.ber_th,
                                        state->test, eval_rng, 2);
  EXPECT_GE(acc,
            state->baseline->clean_accuracy - cfg.accuracy_bound - 0.03);
}

TEST_F(FaultAwareFixture, Algorithm1BerThIsAStageValue) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {1e-7, 1e-5, 1e-3};
  Rng rng(7);
  const auto result = improve_error_tolerance(
      *state->baseline, cfg, state->injectors, state->train, state->test,
      rng);
  if (result.met_target) {
    bool found = false;
    for (const double s : cfg.ber_stages) found |= s == result.ber_th;
    EXPECT_TRUE(found);
  }
}

TEST_F(FaultAwareFixture, Algorithm1RejectsBadSchedules) {
  FaultTrainingConfig cfg;
  cfg.ber_stages = {};
  Rng rng(8);
  EXPECT_THROW((void)improve_error_tolerance(*state->baseline, cfg,
                                             state->injectors, state->train,
                                             state->test, rng),
               ContractViolation);
  cfg.ber_stages = {1e-3, 1e-5};  // descending
  EXPECT_THROW((void)improve_error_tolerance(*state->baseline, cfg,
                                             state->injectors, state->train,
                                             state->test, rng),
               ContractViolation);
}

/// Clips that leave [w_min, clip] empty or undefined: below the floor, at
/// the floor (w_min = 0), and NaN.
std::vector<float> bad_weight_clips() {
  return {-1.0f, 0.0f, std::numeric_limits<float>::quiet_NaN()};
}

TEST_F(FaultAwareFixture, EvaluateCorruptedRejectsInvalidWeightClip) {
  for (const float clip : bad_weight_clips()) {
    Rng rng(33);
    EXPECT_THROW((void)evaluate_corrupted(state->baseline->net,
                                          state->baseline->labels,
                                          state->injectors, 1e-3, state->test,
                                          rng, 1, clip),
                 ContractViolation)
        << "clip " << clip;
  }
}

TEST_F(FaultAwareFixture, ToleranceCurveIsRecordedAscending) {
  Rng rng(9);
  auto model = *state->baseline;  // copy
  const std::vector<double> rates{1e-7, 1e-5, 1e-3};
  const auto analysis =
      analyze_layer_tolerance(model.net, model.labels, state->injectors,
                              rates, 0.0, state->test, rng)[0];
  ASSERT_EQ(analysis.curve.size(), 3u);
  for (std::size_t i = 0; i < rates.size(); ++i)
    EXPECT_EQ(analysis.curve[i].ber, rates[i]);
  // target 0 -> every point passes -> BER_th is the last stage.
  EXPECT_TRUE(analysis.met_target);
  EXPECT_EQ(analysis.ber_th, 1e-3);
}

TEST_F(FaultAwareFixture, ToleranceUnreachableTarget) {
  Rng rng(10);
  auto model = *state->baseline;
  const auto analysis =
      analyze_layer_tolerance(model.net, model.labels, state->injectors,
                              {1e-5, 1e-3}, 1.01, state->test, rng)[0];
  EXPECT_FALSE(analysis.met_target);
  EXPECT_EQ(analysis.ber_th, 0.0);
}

TEST_F(FaultAwareFixture, ToleranceRejectsDescendingRates) {
  Rng rng(11);
  auto model = *state->baseline;
  EXPECT_THROW(
      (void)analyze_layer_tolerance(model.net, model.labels,
                                    state->injectors, {1e-3, 1e-5}, 0.5,
                                    state->test, rng),
      ContractViolation);
}

// ------------------------------------------------------------------ pipeline

TEST(Pipeline, EndToEndSmoke) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 64;
  cfg.network.seed = 42;
  cfg.train_samples = 250;
  cfg.test_samples = 100;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  const auto r = run_pipeline(cfg);

  EXPECT_GT(r.baseline_accuracy, 0.3);
  EXPECT_GT(r.baseline_energy_nj, 0.0);
  ASSERT_EQ(r.per_voltage.size(), 5u);

  double prev_energy = r.baseline_energy_nj * 1.01;
  for (const auto& v : r.per_voltage) {
    // Energy strictly decreases with voltage; savings grow.
    EXPECT_LT(v.energy_nj, prev_energy);
    prev_energy = v.energy_nj;
    EXPECT_GT(v.saving_pct, 0.0);
    // Throughput is maintained (paper Fig. 12b).
    EXPECT_GE(v.speedup, 0.99);
    // The mapping keeps the row buffer hot.
    EXPECT_GT(v.row_hit_rate, 0.9);
    EXPECT_GT(v.safe_subarrays, 0u);
  }
  // Headline: the lowest voltage saves roughly 40% (paper: 39.46% average).
  EXPECT_NEAR(r.per_voltage.back().saving_pct, 39.5, 3.0);
}

TEST(Pipeline, AccuracyWithinBoundAcrossVoltages) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 100;
  cfg.network.seed = 42;
  cfg.train_samples = 400;
  cfg.test_samples = 150;
  cfg.baseline_epochs = 2;
  cfg.fault_training.ber_stages = {1e-7, 1e-5, 1e-3};
  const auto r = run_pipeline(cfg);
  ASSERT_TRUE(r.met_target);
  for (const auto& v : r.per_voltage)
    EXPECT_GE(v.accuracy, r.baseline_accuracy -
                              cfg.fault_training.accuracy_bound - 0.04)
        << "at " << v.v_supply << " V";
}

TEST(Pipeline, RecordsPhaseWallClockTimings) {
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = 42;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  const auto r = run_pipeline(cfg);
  const auto& t = r.timings;
  EXPECT_GT(t.train_ns, 0.0);
  EXPECT_GT(t.fault_training_ns, 0.0);
  EXPECT_GT(t.sweep_ns, 0.0);
  // The phases tile the run: they sum to the total (same clock reads).
  EXPECT_NEAR(t.train_ns + t.fault_training_ns + t.sweep_ns, t.total_ns,
              t.total_ns * 1e-9 + 1.0);
}

TEST(Pipeline, RejectsEmptyVoltageList) {
  PipelineConfig cfg;
  cfg.voltages.clear();
  EXPECT_THROW((void)run_pipeline(cfg), ContractViolation);
}

TEST(Pipeline, RefusesArtifactCaptureWithEcc) {
  // A serving artifact carries no check words and the server injects with
  // the range clip only, so an ECC operating point cannot be exported.
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = 42;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  cfg.ecc.kind = error::EccKind::kSecded;
  ArtifactState artifact;
  EXPECT_THROW((void)run_pipeline(cfg, &artifact), ContractViolation);
  EXPECT_FALSE(artifact.model.has_value());
}

TEST(PipelineConfig_, ValidateRejectsBadVoltageGrids) {
  PipelineConfig cfg;
  EXPECT_NO_THROW(cfg.validate());  // defaults are valid

  cfg.voltages = {1.100, 1.250};  // ascending — wrong order
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.250, 1.250, 1.100};  // duplicate
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.250, -1.0};  // non-positive
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.voltages = {1.325};  // a single voltage is fine
  EXPECT_NO_THROW(cfg.validate());
}

TEST(PipelineConfig_, ValidateRejectsBadBerSchedule) {
  PipelineConfig cfg;
  cfg.fault_training.ber_stages.clear();
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.fault_training.ber_stages = {1e-3, 1e-5};  // descending
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.fault_training.ber_stages = {0.0, 1e-3};  // zero rate
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(PipelineConfig_, ValidateRejectsEmptyData) {
  PipelineConfig no_train;
  no_train.train_samples = 0;
  EXPECT_THROW(no_train.validate(), ContractViolation);
  PipelineConfig no_test;
  no_test.test_samples = 0;
  EXPECT_THROW(no_test.validate(), ContractViolation);
}

TEST(PipelineConfig_, ValidateRejectsBeforeTrainingWhatTrainingWouldReject) {
  // Each of these used to pass validate() and throw only after the dataset
  // was synthesised and the baseline trained; run_pipeline validates first.
  const auto rejects = [](const auto& mutate) {
    PipelineConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), ContractViolation);
    EXPECT_THROW((void)run_pipeline(cfg), ContractViolation);
  };
  rejects([](PipelineConfig& c) { c.network.timesteps = 0; });
  rejects([](PipelineConfig& c) { c.fault_training.eval_trials = 0; });
  // One input fewer than the 28x28 pixels.
  rejects([](PipelineConfig& c) { c.network.n_inputs = 783; });
  // A 2-byte burst holds no whole FP32 weight (a 4-byte one does).
  rejects([](PipelineConfig& c) {
    c.geometry.burst_columns = 1;
    c.geometry.column_bytes = 2;
  });
  PipelineConfig four_byte_bursts;
  four_byte_bursts.geometry.burst_columns = 1;
  EXPECT_NO_THROW(four_byte_bursts.validate());
}

TEST_F(FaultAwareFixture, LayerInjectorsSizeMustMatchDepth) {
  Rng rng(32);
  EXPECT_THROW((void)evaluate_corrupted(
                   state->baseline->net, state->baseline->labels,
                   LayerInjectors{state->injector.get(),
                                  state->injector.get()},
                   1e-3, state->test, rng),
               ContractViolation);
}

// -------------------------------------------------------------- deep stacks

/// Shared expensive fixture for the layer-stack pipeline: one 2-layer
/// end-to-end run, reused by all deep-pipeline assertions below.
class DeepPipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg = new PipelineConfig();
    cfg->network.n_neurons = 25;
    cfg->network.hidden_neurons = {48};
    cfg->network.seed = 42;
    cfg->train_samples = 100;
    cfg->test_samples = 50;
    cfg->baseline_epochs = 1;
    cfg->fault_training.ber_stages = {1e-5, 1e-3};
    cfg->fault_training.eval_trials = 2;
    cfg->voltages = {1.250, 1.100, 1.025};
    report = new PipelineReport(run_pipeline(*cfg));
  }
  static void TearDownTestSuite() {
    delete report;
    delete cfg;
    report = nullptr;
    cfg = nullptr;
  }
  static PipelineConfig* cfg;
  static PipelineReport* report;
};

PipelineConfig* DeepPipelineFixture::cfg = nullptr;
PipelineReport* DeepPipelineFixture::report = nullptr;

TEST_F(DeepPipelineFixture, RunsEndToEndWithPerLayerTolerance) {
  const auto& r = *report;
  EXPECT_GT(r.baseline_accuracy, 0.2);
  ASSERT_EQ(r.layer_ber_th.size(), 2u);
  ASSERT_EQ(r.layer_met_target.size(), 2u);
  ASSERT_EQ(r.layer_curves.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    // Per-layer curves cover every configured BER stage, in order.
    ASSERT_EQ(r.layer_curves[l].size(),
              cfg->fault_training.ber_stages.size());
    for (std::size_t i = 0; i < r.layer_curves[l].size(); ++i)
      EXPECT_EQ(r.layer_curves[l][i].ber,
                cfg->fault_training.ber_stages[i]);
    // A met per-layer threshold is one of the analyzed stages.
    if (r.layer_met_target[l]) {
      bool found = false;
      for (const double s : cfg->fault_training.ber_stages)
        found |= s == r.layer_ber_th[l];
      EXPECT_TRUE(found);
    } else {
      EXPECT_EQ(r.layer_ber_th[l], 0.0);
    }
    // Corrupting ONE layer can never be harder to tolerate than corrupting
    // all of them: the per-layer threshold dominates the global one.
    if (r.met_target && r.layer_met_target[l]) {
      EXPECT_GE(r.layer_ber_th[l], r.ber_th);
    }
  }
}

TEST_F(DeepPipelineFixture, PerVoltageRowsCarryPerLayerPlacementStats) {
  for (const auto& v : report->per_voltage) {
    ASSERT_EQ(v.layers.size(), 2u);
    double energy = 0.0;
    std::uint64_t refreshes = 0;
    for (std::size_t l = 0; l < v.layers.size(); ++l) {
      const auto& ls = v.layers[l];
      EXPECT_GT(ls.chunks, 0u);
      EXPECT_GT(ls.safe_subarrays, 0u);
      EXPECT_GT(ls.energy_nj, 0.0);
      EXPECT_GT(ls.row_hit_rate, 0.9);
      energy += ls.energy_nj;
      refreshes += ls.refreshes;
    }
    // Layer 0 (784x48) holds far more weights than layer 1 (48x25).
    EXPECT_GT(v.layers[0].chunks, v.layers[1].chunks);
    // Aggregates are the sums of the per-layer slices.
    EXPECT_DOUBLE_EQ(v.energy_nj, energy);
    EXPECT_EQ(v.refreshes, refreshes);
    EXPECT_GT(v.saving_pct, 0.0);
    EXPECT_GE(v.speedup, 0.99);
  }
}

TEST_F(DeepPipelineFixture, SingleLayerReportsKeepLegacyShape) {
  // The flat pipeline must not pay for (or report) the per-layer analysis:
  // its vector is exactly {ber_th} and no curves are recorded.
  PipelineConfig flat = *cfg;
  flat.network.hidden_neurons.clear();
  const auto r = run_pipeline(flat);
  ASSERT_EQ(r.layer_ber_th.size(), 1u);
  EXPECT_EQ(r.layer_ber_th[0], r.met_target ? r.ber_th : 0.0);
  ASSERT_EQ(r.layer_met_target.size(), 1u);
  EXPECT_EQ(r.layer_met_target[0], r.met_target);
  EXPECT_TRUE(r.layer_curves.empty());
  ASSERT_FALSE(r.per_voltage.empty());
  for (const auto& v : r.per_voltage) {
    ASSERT_EQ(v.layers.size(), 1u);
    EXPECT_DOUBLE_EQ(v.layers[0].energy_nj, v.energy_nj);
    EXPECT_EQ(v.layers[0].safe_subarrays, v.safe_subarrays);
    EXPECT_EQ(v.layers[0].capacity_relaxed, v.capacity_relaxed);
  }
}

TEST(Pipeline, SalpIsNeverSlowerOrHungrierThanCommodity) {
  // SALP only removes PRE/ACT work from the SparkXD mapping's trace, so at
  // every voltage it can only save energy and time; accuracy is untouched
  // (error injection does not depend on the row-buffer architecture).
  PipelineConfig cfg;
  cfg.network.n_neurons = 25;
  cfg.network.seed = 42;
  cfg.train_samples = 100;
  cfg.test_samples = 50;
  cfg.baseline_epochs = 1;
  cfg.fault_training.ber_stages = {1e-5, 1e-3};
  cfg.voltages = {1.250, 1.025};
  const auto commodity = run_pipeline(cfg);
  cfg.salp = true;
  const auto salp = run_pipeline(cfg);
  ASSERT_EQ(salp.per_voltage.size(), commodity.per_voltage.size());
  for (std::size_t i = 0; i < salp.per_voltage.size(); ++i) {
    EXPECT_LE(salp.per_voltage[i].energy_nj,
              commodity.per_voltage[i].energy_nj * 1.0001);
    EXPECT_GE(salp.per_voltage[i].speedup,
              commodity.per_voltage[i].speedup * 0.9999);
    EXPECT_EQ(salp.per_voltage[i].accuracy, commodity.per_voltage[i].accuracy);
  }
}

}  // namespace
}  // namespace sparkxd::core
