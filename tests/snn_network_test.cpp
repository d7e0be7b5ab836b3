// Tests for the full network and the trainer: initialization invariants,
// normalization, learning/inference separation, labeling, the readout vote,
// and a small end-to-end learning smoke test.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "data/dataset.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"
#include "train_oracle_util.hpp"

namespace sparkxd::snn {
namespace {

NetworkConfig tiny_config() {
  NetworkConfig cfg;
  cfg.n_inputs = 784;
  cfg.n_neurons = 30;
  cfg.timesteps = 40;
  cfg.seed = 7;
  return cfg;
}

std::vector<float> bright_image(std::size_t n, float value = 0.8f) {
  return std::vector<float>(n, value);
}

/// One clean inference through a fresh InferenceState.
std::vector<std::uint32_t> infer_once(const Network& net,
                                      const std::vector<float>& image,
                                      Rng& rng) {
  InferenceState state(net);
  return net.infer(state, image, rng);
}

TEST(Network, InitialWeightsNormalized) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const auto& w = net.weights(0);
  ASSERT_EQ(w.size(), cfg.n_neurons * cfg.n_inputs);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      sum += w[n * cfg.n_inputs + i];
    EXPECT_NEAR(sum, cfg.norm_target, 0.01f);
  }
  for (const float v : w) EXPECT_GE(v, 0.0f);
}

TEST(Network, WeightInitDeterministicInSeed) {
  auto cfg = tiny_config();
  Network a(cfg), b(cfg);
  EXPECT_EQ(a.weights(0), b.weights(0));
  cfg.seed = 8;
  Network c(cfg);
  EXPECT_NE(a.weights(0), c.weights(0));
}

TEST(Network, NormalizeRowsRestoresTarget) {
  const auto cfg = tiny_config();
  const Network init(cfg);
  auto tripled = init.weights(0);
  for (auto& w : tripled) w *= 3.0f;
  Network net(cfg, {std::move(tripled)}, {init.thetas(0)});
  net.normalize_rows();
  const auto& w = net.weights(0);
  float sum = 0.0f;
  for (std::size_t i = 0; i < cfg.n_inputs; ++i) sum += w[i];
  EXPECT_NEAR(sum, cfg.norm_target, 0.01f);
}

TEST(Network, NormalizeSkipsZeroRows) {
  const auto cfg = tiny_config();
  const Network init(cfg);
  auto w = init.weights(0);
  std::fill_n(w.begin(), cfg.n_inputs, 0.0f);  // zero out neuron 0
  Network net(cfg, {std::move(w)}, {init.thetas(0)});
  net.normalize_rows();
  for (std::size_t i = 0; i < cfg.n_inputs; ++i)
    EXPECT_EQ(net.weights(0)[i], 0.0f);
}

TEST(Network, LearningChangesWeights) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const auto w_before = net.weights(0);
  Rng rng(1);
  (void)net.train_step(bright_image(cfg.n_inputs), rng);
  EXPECT_NE(net.weights(0), w_before);
}

TEST(Network, LearningKeepsRowsNormalized) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  (void)net.train_step(bright_image(cfg.n_inputs), rng);
  const auto& w = net.weights(0);
  for (std::size_t n = 0; n < cfg.n_neurons; ++n) {
    float sum = 0.0f;
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      sum += w[n * cfg.n_inputs + i];
    EXPECT_NEAR(sum, cfg.norm_target, 0.05f);
  }
}

TEST(Network, SpikesProducedForBrightInput) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  const auto counts = infer_once(net, bright_image(cfg.n_inputs), rng);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_GT(total, 0u);
}

TEST(Network, NoSpikesForBlackInput) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  const auto counts =
      infer_once(net, std::vector<float>(cfg.n_inputs, 0.0f), rng);
  for (const auto c : counts) EXPECT_EQ(c, 0u);
}

TEST(Network, InferenceDeterministicGivenRngState) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng a(3), b(3);
  const auto img = bright_image(cfg.n_inputs, 0.5f);
  EXPECT_EQ(infer_once(net, img, a), infer_once(net, img, b));
}

TEST(Network, TrainingProducesAtMostOneSpikePerStep) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(2);
  const auto counts = net.train_step(bright_image(cfg.n_inputs), rng);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_LE(total, cfg.timesteps);
}

TEST(Network, RejectsWrongImageSize) {
  Network net(tiny_config());
  Rng rng(1);
  std::vector<float> wrong(10, 0.5f);
  EXPECT_THROW(infer_once(net, wrong, rng), ContractViolation);
  EXPECT_THROW(net.train_step(wrong, rng), ContractViolation);
}

TEST(Network, RejectsDegenerateConfig) {
  auto cfg = tiny_config();
  cfg.n_neurons = 0;
  EXPECT_THROW(Network{cfg}, ContractViolation);
  cfg = tiny_config();
  cfg.timesteps = 0;
  EXPECT_THROW(Network{cfg}, ContractViolation);
  // A wrapped timestep count would loop every sample ~forever.
  cfg.timesteps = std::size_t{1} << 16;
  EXPECT_NO_THROW(require_valid(cfg));
  cfg.timesteps = (std::size_t{1} << 16) + 1;
  EXPECT_THROW(Network{cfg}, ContractViolation);
  cfg.timesteps = static_cast<std::size_t>(-1);
  EXPECT_THROW(Network{cfg}, ContractViolation);
}

// --------------------------------------------- transposed inference layout

TEST(Network, TransposeMirrorsRowMajorAfterTraining) {
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng rng(1);
  (void)net.train_step(bright_image(cfg.n_inputs), rng);
  // STDP and the normalisation write through to the transpose.
  const auto& w = net.weights(0);
  const auto& wt = net.weights_T(0);
  ASSERT_EQ(wt.size(), w.size());
  for (std::size_t n = 0; n < cfg.n_neurons; ++n)
    for (std::size_t i = 0; i < cfg.n_inputs; ++i)
      ASSERT_EQ(wt[i * cfg.n_neurons + n], w[n * cfg.n_inputs + i])
          << "neuron " << n << " input " << i;
}

TEST(Network, DeltaMirrorEqualsFullResync) {
  const auto cfg = tiny_config();
  Network full(cfg), delta(cfg);
  const std::size_t idx = 5 * cfg.n_inputs + 17;  // neuron 5, input 17
  full.weights_delta(0)[idx] = 0.123f;
  full.sync_transpose();
  delta.weights_delta(0)[idx] = 0.123f;
  delta.mirror_weight(0, idx);
  EXPECT_EQ(full.weights(0), delta.weights(0));
  EXPECT_EQ(full.weights_T(0), delta.weights_T(0));
}

TEST(Network, MirrorWeightRejectsOutOfRangeIndex) {
  const auto cfg = tiny_config();
  Network net(cfg);
  const std::size_t n = cfg.n_inputs * cfg.n_neurons;
  EXPECT_NO_THROW(net.mirror_weight(0, n - 1));
  EXPECT_THROW(net.mirror_weight(0, n), ContractViolation);
  EXPECT_THROW(net.mirror_weight(0, n + cfg.n_inputs), ContractViolation);
}

TEST(Network, ReusedStateMatchesFreshStateBitwise) {
  // One InferenceState reused across samples must give the same spike
  // counts and consume the same Rng stream as a fresh state per sample.
  const auto cfg = tiny_config();
  Network net(cfg);
  Rng train_rng(2);
  (void)net.train_step(bright_image(cfg.n_inputs), train_rng);
  InferenceState state(net);
  for (const float intensity : {0.8f, 0.5f, 0.2f}) {
    const auto img = bright_image(cfg.n_inputs, intensity);
    Rng a(3), b(3);
    EXPECT_EQ(net.infer(state, img, a), infer_once(net, img, b))
        << "intensity " << intensity;
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Network, StateBuiltBeforeRetrainingInfersLikeAFreshOne) {
  // The state holds no thresholds: one built before a training pass, run
  // by the trained network rebuilt with one threshold edited, reads that
  // network's current ones, exactly like a state built afterwards.
  const auto cfg = tiny_config();
  Network net(cfg);
  InferenceState early(net);

  Rng train_rng(2);
  (void)net.train_step(bright_image(cfg.n_inputs), train_rng);
  auto thetas = net.thetas(0);
  thetas[3] += 0.25f;
  const Network edited(cfg, {net.weights(0)}, {std::move(thetas)});

  InferenceState fresh(edited);
  const auto img = bright_image(cfg.n_inputs, 0.5f);
  Rng a(9), b(9);
  const auto counts = edited.infer(early, img, a);
  EXPECT_EQ(counts, edited.infer(fresh, img, b));
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_GT(std::accumulate(counts.begin(), counts.end(), 0u), 0u);
}

TEST(Network, StateFromOneNetworkInfersWithTheRunningNetworksThresholds) {
  // Regression: two same-shape networks whose thresholds were both written
  // once (as by model loading). A state built from A and run by B must
  // infer with B's thresholds, not a copy of A's.
  const auto cfg = tiny_config();
  const Network init(cfg);
  const Network a(cfg, {init.weights(0)},
                  {std::vector<float>(cfg.n_neurons, 0.0f)});
  const Network b(cfg, {init.weights(0)},
                  {std::vector<float>(cfg.n_neurons, 50.0f)});
  const auto img = bright_image(cfg.n_inputs);
  Rng ra(4), rb(4);
  const auto a_counts = infer_once(a, img, ra);
  const auto b_counts = infer_once(b, img, rb);
  ASSERT_GT(std::accumulate(a_counts.begin(), a_counts.end(), 0u), 0u);
  ASSERT_NE(b_counts, a_counts);

  InferenceState built_from_a(a);
  Rng rc(4);
  EXPECT_EQ(b.infer(built_from_a, img, rc), b_counts);
  EXPECT_EQ(rc.next_u64(), rb.next_u64());
}

TEST(Network, InferLeavesNetworkUntouched) {
  const auto cfg = tiny_config();
  Network net(cfg);
  InferenceState state(net);
  const auto w_before = net.weights(0);
  const auto wt_before = net.weights_T(0);
  const auto theta_before = net.thetas(0);
  Rng rng(4);
  (void)net.infer(state, bright_image(cfg.n_inputs), rng);
  EXPECT_EQ(net.weights(0), w_before);
  EXPECT_EQ(net.weights_T(0), wt_before);
  EXPECT_EQ(net.thetas(0), theta_before);
}

// ------------------------------------------------------------------- trainer

struct TrainedFixture : public ::testing::Test {
  void SetUp() override {
    all = data::make_dataset(data::Task::kDigits, 500, 42);
    train = all.take(400);
    test = all.drop(400);
    NetworkConfig cfg;
    cfg.n_neurons = 100;
    cfg.seed = 42;
    Rng rng(42);
    model = std::make_unique<TrainedModel>(
        train_and_label(cfg, train, test, 2, rng));
  }
  data::Dataset all, train, test;
  std::unique_ptr<TrainedModel> model;
};

TEST_F(TrainedFixture, LearnsWellAboveChance) {
  // 10 classes -> chance is 10%. The smoke bound is deliberately loose; the
  // benches report the real accuracy.
  EXPECT_GT(model->clean_accuracy, 0.5);
}

TEST_F(TrainedFixture, LabelsCoverMultipleClasses) {
  std::set<std::int32_t> classes;
  for (const auto l : model->labels.label)
    if (l >= 0) classes.insert(l);
  EXPECT_GE(classes.size(), 8u);
}

TEST_F(TrainedFixture, LabelsInRange) {
  for (const auto l : model->labels.label) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, 10);
  }
  ASSERT_EQ(model->labels.bias.size(), model->labels.label.size());
  for (const double b : model->labels.bias) EXPECT_GE(b, 0.0);
}

TEST_F(TrainedFixture, VoteReturnsValidClass) {
  Rng rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto p = vote_spike_counts(infer_once(model->net, test.images[i], rng),
                                     model->labels);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
  }
}

TEST_F(TrainedFixture, EvaluateIsMeanAccuracy) {
  Rng rng(6);
  const double acc = evaluate(model->net, model->labels, test, rng);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST_F(TrainedFixture, EvaluateOverloadsAgreeBitwise) {
  // The concurrent fan-out and the reusable-InferenceState hot path must
  // produce the same accuracy from the same Rng state.
  Rng a(8), c(8);
  const double fanned = evaluate(model->net, model->labels, test, a);
  InferenceState state(model->net);
  const double reused = evaluate(model->net, state, model->labels, test, c);
  EXPECT_EQ(fanned, reused);
}

TEST_F(TrainedFixture, MoreTrainingDoesNotCollapse) {
  Rng rng(7);
  train_epoch(model->net, train, rng);
  const auto labels = label_neurons(model->net, train, rng);
  const double acc = evaluate(model->net, labels, test, rng);
  EXPECT_GT(acc, 0.5);
}

TEST(Trainer, LargerNetworkAtLeastAsGood) {
  // Paper Fig. 1a: larger models achieve higher accuracy (given data).
  const auto all = data::make_dataset(data::Task::kDigits, 700, 11);
  const auto train = all.take(550);
  const auto test = all.drop(550);
  NetworkConfig small, large;
  small.n_neurons = 36;
  small.seed = 11;
  large.n_neurons = 225;
  large.seed = 11;
  Rng r1(11), r2(11);
  const auto m_small = train_and_label(small, train, test, 2, r1);
  const auto m_large = train_and_label(large, train, test, 2, r2);
  EXPECT_GT(m_large.clean_accuracy, m_small.clean_accuracy - 0.02);
}

TEST(Trainer, RejectsMismatchedDataset) {
  NetworkConfig cfg = tiny_config();
  cfg.n_inputs = 100;  // not 784
  Network net(cfg);
  const auto ds = data::make_dataset(data::Task::kDigits, 10, 1);
  Rng rng(1);
  EXPECT_THROW(train_epoch(net, ds, rng), ContractViolation);
}

TEST(Trainer, EmptyDatasetRejectedForLabeling) {
  Network net(tiny_config());
  data::Dataset empty;
  empty.num_classes = 10;
  Rng rng(1);
  EXPECT_THROW(label_neurons(net, empty, rng), ContractViolation);
}

TEST(Trainer, LabelingRejectsOutOfRangeLabelsAndPixelMismatch) {
  // A label >= num_classes would index the per-class response table out of
  // bounds; a pixel-width mismatch would feed the encoder a wrong-sized
  // image. Both are rejected before any inference runs (the Rng untouched).
  Network net(tiny_config());
  auto ds = data::make_dataset(data::Task::kDigits, 12, 1);
  Rng rng(1);
  const Rng untouched = rng;
  auto bad_label = ds;
  bad_label.labels[7] = static_cast<std::uint8_t>(bad_label.num_classes);
  EXPECT_THROW(label_neurons(net, bad_label, rng), ContractViolation);
  auto few_classes = ds;
  few_classes.num_classes = 3;  // labels run up to 9
  EXPECT_THROW(label_neurons(net, few_classes, rng), ContractViolation);
  auto narrow = ds;
  narrow.width = 27;
  EXPECT_THROW(label_neurons(net, narrow, rng), ContractViolation);
  Rng expected = untouched;
  EXPECT_EQ(rng.next_u64(), expected.next_u64());
  EXPECT_NO_THROW((void)label_neurons(net, ds, rng));
}

TEST(Trainer, VoteRejectsOutOfRangeLabelsAndShortTables) {
  // A caller-built label table must not make the vote index past its
  // per-class slots, or past the label and bias tables themselves.
  const NeuronLabels labels{{0, 1, 2}, {0.0, 0.0, 0.0}, 3};
  const std::vector<std::uint32_t> counts{1, 2, 3};
  EXPECT_EQ(vote_spike_counts(counts, labels), 2);
  auto unlabelled = labels;
  unlabelled.label[2] = -1;  // an unlabelled neuron abstains
  EXPECT_EQ(vote_spike_counts(counts, unlabelled), 1);

  auto past_classes = labels;
  past_classes.label[1] = 3;
  EXPECT_THROW((void)vote_spike_counts(counts, past_classes),
               ContractViolation);
  auto short_bias = labels;
  short_bias.bias.pop_back();
  EXPECT_THROW((void)vote_spike_counts(counts, short_bias), ContractViolation);
  auto short_label = labels;
  short_label.label.pop_back();
  EXPECT_THROW((void)vote_spike_counts(counts, short_label),
               ContractViolation);
}

TEST(Trainer, LabelingAFixedPointNetworkRunsTheDenseFloatKernel) {
  // An event-fx network labels on the float dense kernel and only evaluates
  // in fixed point; label_neurons must not follow the configured engine.
  // Weights of about one Q47.16 step (rows summing to 0.01) and a matching
  // effective threshold v_thresh + theta of 3e-4 make the fixed-point
  // rounding decide spikes, so the two kernels visibly diverge.
  const auto all = data::make_dataset(data::Task::kDigits, 40, 5);
  const auto cfg = tiny_config();
  std::vector<float> w = Network(cfg).weights(0);
  for (float& x : w) x *= 0.01f / NetworkConfig::norm_target;
  Network net(cfg, {std::move(w)},
              {std::vector<float>(cfg.n_neurons, 3e-4f - LifParams::v_thresh)});
  Network fx = net;
  fx.set_engine(EngineKind::kEventFx);

  // Precondition: in this configuration fx inference really differs from
  // dense on some labelling sample (same serial stream as label_neurons),
  // so a labelling pass that followed the engine would change the result.
  {
    InferenceState dense_state(net), fx_state(fx);
    Rng a(6), b(6);
    bool differs = false;
    for (const auto& img : all.images)
      differs |= net.infer(dense_state, img, a) != fx.infer(fx_state, img, b);
    ASSERT_TRUE(differs);
  }

  Rng a(6), b(6);
  const NeuronLabels dense_labels = label_neurons(net, all, a);
  const NeuronLabels fx_labels = label_neurons(fx, all, b);
  EXPECT_EQ(fx_labels.label, dense_labels.label);
  ASSERT_EQ(fx_labels.bias.size(), dense_labels.bias.size());
  for (std::size_t j = 0; j < fx_labels.bias.size(); ++j)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fx_labels.bias[j]),
              std::bit_cast<std::uint64_t>(dense_labels.bias[j]))
        << "neuron " << j;
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(fx.engine(), EngineKind::kEventFx);

  // The engine is restored on a throw too: a negative pixel makes the
  // encoder reject the image mid-pass.
  auto poisoned = all;
  poisoned.images[20][100] = -1.0f;
  EXPECT_THROW(label_neurons(fx, poisoned, b), ContractViolation);
  EXPECT_EQ(fx.engine(), EngineKind::kEventFx);
}

// -------------------------------------------------------------- deep stacks

NetworkConfig deep_config() {
  NetworkConfig cfg = tiny_config();
  cfg.hidden_neurons = {20, 12};
  return cfg;
}

TEST(DeepNetwork, LayerGeometryHelpers) {
  const auto cfg = deep_config();
  EXPECT_EQ(cfg.n_layers(), 3u);
  EXPECT_EQ(cfg.layer_inputs(0), 784u);
  EXPECT_EQ(cfg.layer_neurons(0), 20u);
  EXPECT_EQ(cfg.layer_inputs(1), 20u);
  EXPECT_EQ(cfg.layer_neurons(1), 12u);
  EXPECT_EQ(cfg.layer_inputs(2), 12u);
  EXPECT_EQ(cfg.layer_neurons(2), 30u);
  EXPECT_EQ(cfg.layer_weight_count(0), 784u * 20u);
  EXPECT_EQ(cfg.layer_weight_count(1), 20u * 12u);
  EXPECT_EQ(cfg.layer_weight_count(2), 12u * 30u);
}

TEST(DeepNetwork, PerLayerWeightsNormalizedAndDeterministic) {
  const auto cfg = deep_config();
  Network net(cfg);
  ASSERT_EQ(net.n_layers(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    const auto& w = net.weights(l);
    ASSERT_EQ(w.size(), cfg.layer_weight_count(l));
    for (std::size_t n = 0; n < cfg.layer_neurons(l); ++n) {
      float sum = 0.0f;
      for (std::size_t i = 0; i < cfg.layer_inputs(l); ++i)
        sum += w[n * cfg.layer_inputs(l) + i];
      EXPECT_NEAR(sum, cfg.norm_target, 0.01f) << "layer " << l;
    }
  }
  Network again(cfg);
  for (std::size_t l = 0; l < 3; ++l)
    EXPECT_EQ(net.weights(l), again.weights(l));
}

TEST(DeepNetwork, OutputLayerInitMatchesTheFlatNetworkBitwise) {
  // The output layer draws from Rng(seed) — the legacy stream — so before
  // normalization it is the same draw sequence as the flat network's one
  // layer. (Normalization depends only on the row itself, so the normalized
  // rows coincide too.)
  auto flat_cfg = tiny_config();
  flat_cfg.n_inputs = 20;  // the deep output layer's fan-in
  auto deep_cfg = tiny_config();
  deep_cfg.hidden_neurons = {20};
  deep_cfg.n_inputs = 20;
  const Network flat(flat_cfg);
  const Network deep(deep_cfg);
  ASSERT_EQ(deep.weights(1).size(), 20u * 30u);
  EXPECT_EQ(deep.weights(1), flat.weights(0));
}

TEST(DeepNetwork, LayerIndexOutOfRangeIsRejected) {
  Network deep(deep_config());
  EXPECT_THROW((void)deep.weights(3), ContractViolation);
  EXPECT_THROW((void)deep.weights_T(3), ContractViolation);
  EXPECT_THROW((void)deep.weights_delta(3), ContractViolation);
  EXPECT_THROW((void)deep.thetas(3), ContractViolation);
}

TEST(DeepNetwork, InferCountsTheOutputLayer) {
  const auto cfg = deep_config();
  Network net(cfg);
  const auto image = bright_image(cfg.n_inputs, 0.6f);
  Rng a(21), b(21);
  const auto counts = infer_once(net, image, a);
  EXPECT_EQ(counts, infer_once(net, image, b));
  ASSERT_EQ(counts.size(), cfg.n_neurons);
}

TEST(DeepNetwork, PerLayerDeltaMirrorRoundTrips) {
  // Corrupt a word of each layer via the delta path, mirror it, and verify
  // inference sees it; then revert and verify bitwise restoration.
  const auto cfg = deep_config();
  Network net(cfg);
  const auto image = bright_image(cfg.n_inputs, 0.7f);
  Rng clean_rng(31);
  InferenceState state(net);
  const auto clean = net.infer(state, image, clean_rng);

  std::vector<std::pair<std::size_t, float>> before(net.n_layers());
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    const std::size_t idx = 3 + l;
    before[l] = {idx, net.weights(l)[idx]};
    net.weights_delta(l)[idx] = 0.9f;
    net.mirror_weight(l, idx);
  }
  Rng corrupt_rng(31);
  const auto corrupted = net.infer(state, image, corrupt_rng);
  (void)corrupted;  // values may or may not differ; the contract is revert
  for (std::size_t l = 0; l < net.n_layers(); ++l) {
    net.weights_delta(l)[before[l].first] = before[l].second;
    net.mirror_weight(l, before[l].first);
  }
  Rng restored_rng(31);
  EXPECT_EQ(net.infer(state, image, restored_rng), clean);
}

TEST(DeepNetwork, TrainsLabelsAndEvaluatesEndToEnd) {
  const auto all = data::make_dataset(data::Task::kDigits, 140, 3);
  const auto train = all.take(100);
  const auto test = all.drop(100);
  auto cfg = tiny_config();
  cfg.hidden_neurons = {48};
  Rng rng(3);
  const auto model = train_and_label(cfg, train, test, 1, rng);
  EXPECT_GT(model.clean_accuracy, 0.15);  // well above the 10% chance floor
  // Deterministic end to end.
  Rng rng2(3);
  const auto model2 = train_and_label(cfg, train, test, 1, rng2);
  EXPECT_EQ(model.clean_accuracy, model2.clean_accuracy);
  for (std::size_t l = 0; l < model.net.n_layers(); ++l)
    EXPECT_EQ(model.net.weights(l), model2.net.weights(l));
}

TEST(DeepNetwork, RejectsZeroSizedHiddenLayers) {
  auto cfg = tiny_config();
  cfg.hidden_neurons = {16, 0};
  EXPECT_THROW(Network net(cfg), ContractViolation);
}

// ------------------------------------ construction from stored parameters

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

using LayerVectors = std::vector<std::vector<float>>;

TEST(Network, FromParametersMatchesSourceBitwise) {
  // A network built from a trained network's weights and thresholds holds
  // both layouts and the thresholds bit for bit, and infers like it: the
  // same counts from the same Rng draws.
  const auto ds = data::make_dataset(data::Task::kDigits, 4, 5);
  for (const NetworkConfig& cfg : {tiny_config(), deep_config()}) {
    SCOPED_TRACE(testing::Message() << "depth " << cfg.n_layers());
    Network source(cfg);
    Rng train_rng(6);
    for (const auto& image : ds.images) (void)source.train_step(image, train_rng);
    LayerVectors weights, thetas;
    for (std::size_t l = 0; l < source.n_layers(); ++l) {
      weights.push_back(source.weights(l));
      thetas.push_back(source.thetas(l));
    }
    ASSERT_GT(*std::max_element(thetas.back().begin(), thetas.back().end()),
              0.0f);
    const Network built(cfg, std::move(weights), std::move(thetas));
    ASSERT_EQ(built.n_layers(), source.n_layers());
    for (std::size_t l = 0; l < source.n_layers(); ++l) {
      EXPECT_TRUE(same_bits(built.weights(l), source.weights(l))) << l;
      EXPECT_TRUE(same_bits(built.weights_T(l), source.weights_T(l))) << l;
      EXPECT_TRUE(same_bits(built.thetas(l), source.thetas(l))) << l;
    }
    std::uint32_t spikes = 0;
    for (const auto& image : ds.images) {
      Rng a(8), b(8);
      const auto counts = infer_once(built, image, a);
      EXPECT_EQ(counts, infer_once(source, image, b));
      EXPECT_EQ(a.next_u64(), b.next_u64());
      spikes += std::accumulate(counts.begin(), counts.end(), 0u);
    }
    EXPECT_GT(spikes, 0u);
  }
}

TEST(Network, FromParametersRejectsBadInput) {
  const auto cfg = deep_config();
  const Network source(cfg);
  LayerVectors weights, thetas;
  for (std::size_t l = 0; l < source.n_layers(); ++l) {
    weights.push_back(source.weights(l));
    thetas.push_back(source.thetas(l));
  }
  ASSERT_NO_THROW((void)Network(cfg, weights, thetas));
  // Builds from the stored parameters with one edit applied.
  const auto build = [&](auto edit) {
    LayerVectors w = weights, th = thetas;
    edit(w, th);
    return Network(cfg, std::move(w), std::move(th));
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  // Layer count, of either list.
  EXPECT_THROW(build([](LayerVectors& w, LayerVectors&) { w.pop_back(); }),
               ContractViolation);
  EXPECT_THROW(build([](LayerVectors&, LayerVectors& th) { th.pop_back(); }),
               ContractViolation);
  EXPECT_THROW(build([](LayerVectors& w, LayerVectors& th) {
                 w.emplace_back();
                 th.emplace_back();
               }),
               ContractViolation);
  // Weight count.
  EXPECT_THROW(build([](LayerVectors& w, LayerVectors&) { w[1].pop_back(); }),
               ContractViolation);
  EXPECT_THROW(
      build([](LayerVectors& w, LayerVectors&) { w[2].push_back(0.1f); }),
      ContractViolation);
  // Non-finite weights.
  EXPECT_THROW(build([&](LayerVectors& w, LayerVectors&) { w[1][5] = nan; }),
               ContractViolation);
  EXPECT_THROW(build([&](LayerVectors& w, LayerVectors&) { w[2][0] = inf; }),
               ContractViolation);
  EXPECT_THROW(build([&](LayerVectors& w, LayerVectors&) { w[0][9] = -inf; }),
               ContractViolation);
  // The Q47.16 bound: |w| * 2^16 * 784 must stay below 2^62, so
  // |w| < 2^46 / 784 ~ 8.98e10 on layer 0.
  EXPECT_NO_THROW(
      build([](LayerVectors& w, LayerVectors&) { w[0][3] = 8.9e10f; }));
  EXPECT_THROW(build([](LayerVectors& w, LayerVectors&) { w[0][3] = 9e10f; }),
               ContractViolation);
  EXPECT_THROW(build([](LayerVectors& w, LayerVectors&) { w[0][3] = -9e10f; }),
               ContractViolation);
  // Theta count.
  EXPECT_THROW(
      build([](LayerVectors&, LayerVectors& th) { th[0].push_back(0.0f); }),
      ContractViolation);
  EXPECT_THROW(build([](LayerVectors&, LayerVectors& th) { th[2].pop_back(); }),
               ContractViolation);
  // Non-finite thetas.
  EXPECT_THROW(build([&](LayerVectors&, LayerVectors& th) { th[2][1] = nan; }),
               ContractViolation);
  EXPECT_THROW(build([&](LayerVectors&, LayerVectors& th) { th[1][0] = inf; }),
               ContractViolation);
  // The config checks of Network(cfg) hold here too.
  NetworkConfig degenerate = cfg;
  degenerate.timesteps = 0;
  EXPECT_THROW((void)Network(degenerate, weights, thetas),
               ContractViolation);
}

// ------------------------------------------- training against the oracle

/// The same `per_layer` weights of every layer of both networks, drawn
/// from `rng`, set to w_min or w_max through weights_delta and mirrored —
/// the injection path of the fault-aware trainer.
void corrupt_both(Network& a, Network& b, Rng& rng, std::size_t per_layer) {
  const StdpParams& p = a.config().stdp;
  for (std::size_t l = 0; l < a.n_layers(); ++l) {
    const std::span<float> wa = a.weights_delta(l);
    const std::span<float> wb = b.weights_delta(l);
    for (std::size_t k = 0; k < per_layer; ++k) {
      const std::size_t idx = rng.next_u64() % wa.size();
      wa[idx] = wb[idx] = (rng.next_u64() & 1) != 0 ? p.w_max : p.w_min;
      a.mirror_weight(l, idx);
      b.mirror_weight(l, idx);
    }
  }
}

TEST(TrainOracle, TrainStepMatchesTheRowMajorOracleBitwise) {
  // Flat, deep2 and deep3 stacks, weights corrupted between samples: both
  // layouts, the thresholds, the counts and the Rng position equal a
  // row-major replay of every kernel.
  const auto ds = data::make_dataset(data::Task::kDigits, 5, 3);
  const std::vector<std::vector<std::size_t>> stacks{{}, {48}, {48, 24}};
  for (const auto& hidden : stacks) {
    NetworkConfig cfg = tiny_config();
    cfg.hidden_neurons = hidden;
    Network net(cfg), ref(cfg);
    Rng rng(11), ref_rng(11), fault_rng(5);
    std::uint32_t output_spikes = 0;
    for (std::size_t k = 0; k < ds.size(); ++k) {
      SCOPED_TRACE(testing::Message()
                   << "depth " << net.n_layers() << " sample " << k);
      const auto counts = net.train_step(ds.images[k], rng);
      const auto ref_counts =
          testutil::oracle_train_step(ref, ds.images[k], ref_rng);
      ASSERT_EQ(counts, ref_counts);
      output_spikes += std::accumulate(counts.begin(), counts.end(), 0u);
      for (std::size_t l = 0; l < net.n_layers(); ++l) {
        ASSERT_TRUE(same_bits(net.weights(l), ref.weights(l))) << l;
        ASSERT_TRUE(same_bits(net.weights_T(l), ref.weights_T(l))) << l;
        ASSERT_TRUE(same_bits(net.thetas(l), ref.thetas(l))) << l;
      }
      corrupt_both(net, ref, fault_rng, 40);
    }
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    EXPECT_GT(output_spikes, 0u);
  }
}

TEST(TrainOracle, NormalizationMatchesTheRowLoopBitwise) {
  // normalize_rows sums over the transposed layout and scales both; the
  // row loop is the reference, also on rows it must leave alone (sum 0 or
  // negative) and rows whose sum is inf or NaN.
  const auto cfg = tiny_config();
  Network net(cfg);
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t ni = cfg.n_inputs;
  const auto set_row = [&](std::size_t n, auto value_of) {
    const std::span<float> w = net.weights_delta(0);
    for (std::size_t i = 0; i < ni; ++i) {
      w[n * ni + i] = value_of(i);
      net.mirror_weight(0, n * ni + i);
    }
  };
  set_row(0, [](std::size_t) { return 0.0f; });
  set_row(1, [](std::size_t) { return -0.1f; });
  set_row(2, [](std::size_t i) { return i % 2 != 0 ? -0.0f : 0.0f; });
  set_row(3, [&](std::size_t i) { return i == 7 ? inf : 0.01f; });
  set_row(4, [&](std::size_t i) { return i == 9 ? -inf : 0.01f; });
  set_row(5, [](std::size_t i) {
    return i == 3 ? std::numeric_limits<float>::quiet_NaN() : 0.01f;
  });
  set_row(6, [](std::size_t) { return 1e-41f; });
  set_row(7, [](std::size_t i) { return i == 0 ? 1.0f : -1e-3f; });
  Network ref = net;
  net.normalize_rows();
  testutil::oracle_normalize_rows(ref);
  EXPECT_TRUE(same_bits(net.weights(0), ref.weights(0)));
  EXPECT_TRUE(same_bits(net.weights_T(0), ref.weights_T(0)));

  // Again on rows scaled off target (a delta write closed by
  // sync_transpose).
  for (Network* n : {&net, &ref}) {
    for (float& w : n->weights_delta(0)) w *= 3.0f;
    n->sync_transpose();
  }
  net.normalize_rows();
  testutil::oracle_normalize_rows(ref);
  EXPECT_TRUE(same_bits(net.weights(0), ref.weights(0)));
  EXPECT_TRUE(same_bits(net.weights_T(0), ref.weights_T(0)));
}

}  // namespace
}  // namespace sparkxd::snn
