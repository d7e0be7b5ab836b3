#include "snn/trainer.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace sparkxd::snn {

void train_epoch(Network& net, const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.pixels() == net.config().n_inputs,
                  "dataset pixel count must match the network input width");
  for (std::size_t i = 0; i < ds.size(); ++i)
    (void)net.train_step(ds.images[i], rng);
}

NeuronLabels label_neurons(Network& net, const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.size() > 0, "cannot label neurons on an empty dataset");
  SPARKXD_REQUIRE(ds.pixels() == net.config().n_inputs,
                  "dataset pixel count must match the network input width");
  SPARKXD_REQUIRE(ds.labels.size() == ds.size(),
                  "dataset needs exactly one label per image");
  const std::size_t n = net.config().n_neurons;
  const std::size_t k = ds.num_classes;
  for (const std::uint8_t c : ds.labels)
    SPARKXD_REQUIRE(c < k, "dataset label outside [0, num_classes)");
  // responses[n][c] = summed spikes of neuron n over class-c samples.
  std::vector<double> responses(n * k, 0.0);
  std::vector<std::size_t> class_count(k, 0);

  // Labelling always runs the float kernel, whatever engine the network is
  // configured with: an event-fx network is calibrated on exact float sums
  // and only evaluated in fixed point. The configured engine is restored on
  // every exit, including a throw.
  class FloatForScope {
   public:
    explicit FloatForScope(Network& n) : net_(n), saved_(n.engine()) {
      net_.set_engine(EngineKind::kEvent);
    }
    FloatForScope(const FloatForScope&) = delete;
    FloatForScope& operator=(const FloatForScope&) = delete;
    ~FloatForScope() { net_.set_engine(saved_); }

   private:
    Network& net_;
    EngineKind saved_;
  } float_for_scope(net);
  // One state serves every sample, drawing serially from the caller's rng.
  InferenceState state(net);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto counts = net.infer(state, ds.images[i], rng);
    const auto c = ds.labels[i];
    ++class_count[c];
    for (std::size_t j = 0; j < n; ++j) responses[j * k + c] += counts[j];
  }

  NeuronLabels out;
  out.num_classes = k;
  out.label.assign(n, -1);
  out.bias.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double best = 0.0;
    double total = 0.0;
    std::int32_t best_c = -1;
    for (std::size_t c = 0; c < k; ++c) {
      // Average response per presented sample of that class.
      const double avg = class_count[c]
                             ? responses[j * k + c] /
                                   static_cast<double>(class_count[c])
                             : 0.0;
      total += responses[j * k + c];
      if (avg > best) {
        best = avg;
        best_c = static_cast<std::int32_t>(c);
      }
    }
    out.label[j] = best_c;
    out.bias[j] = total / static_cast<double>(ds.size());
  }
  return out;
}

std::int32_t vote_spike_counts(const std::vector<std::uint32_t>& counts,
                               const NeuronLabels& labels) {
  SPARKXD_REQUIRE(counts.size() <= labels.label.size() &&
                      counts.size() <= labels.bias.size(),
                  "label table shorter than the spike counts");
  std::vector<double> votes(labels.num_classes, 0.0);
  std::vector<std::size_t> members(labels.num_classes, 0);
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const auto c = labels.label[j];
    if (c < 0) continue;
    SPARKXD_REQUIRE(static_cast<std::size_t>(c) < labels.num_classes,
                    "neuron label outside [0, num_classes)");
    // Bias-corrected vote: a neuron only contributes its response *excess*
    // over its labelling-time mean, so indiscriminate firing cancels.
    votes[static_cast<std::size_t>(c)] +=
        static_cast<double>(counts[j]) - labels.bias[j];
    ++members[static_cast<std::size_t>(c)];
  }
  double best = 0.0;
  std::int32_t best_c = -1;
  bool first = true;
  for (std::size_t c = 0; c < votes.size(); ++c) {
    if (members[c] == 0) continue;
    const double avg = votes[c] / static_cast<double>(members[c]);
    if (first || avg > best) {
      best = avg;
      best_c = static_cast<std::int32_t>(c);
      first = false;
    }
  }
  return best_c;
}

namespace {

/// Scores samples [begin, end) through `state`, one forked Rng per sample.
void score_span(const Network& net, InferenceState& state,
                const NeuronLabels& labels, const data::Dataset& ds,
                std::uint64_t stream, std::size_t begin, std::size_t end,
                std::vector<std::uint8_t>& correct) {
  for (std::size_t i = begin; i < end; ++i) {
    Rng sample_rng(hash_combine(stream, i));
    const auto counts = net.infer(state, ds.images[i], sample_rng);
    correct[i] = vote_spike_counts(counts, labels) ==
                 static_cast<std::int32_t>(ds.labels[i]);
  }
}

double accuracy_of(const std::vector<std::uint8_t>& correct) {
  std::size_t n_correct = 0;
  for (const std::uint8_t c : correct) n_correct += c;
  return static_cast<double>(n_correct) / static_cast<double>(correct.size());
}

}  // namespace

double evaluate(const Network& net, const NeuronLabels& labels,
                const data::Dataset& ds, Rng& rng) {
  SPARKXD_REQUIRE(ds.size() > 0, "cannot evaluate on an empty dataset");
  SPARKXD_REQUIRE(labels.label.size() == net.config().n_neurons,
                  "label table must match the network size");
  // Inference is per-sample independent (the membrane dynamics reset per
  // sample and the weights are read-only), so samples are scored
  // concurrently: each chunk owns an InferenceState and each sample forks
  // its spike-train Rng from one parent draw, making the accuracy
  // bit-identical at every thread count.
  const std::uint64_t stream = rng.next_u64();
  std::vector<std::uint8_t> correct(ds.size(), 0);
  parallel_for_chunks(
      ds.size(), [&](std::size_t begin, std::size_t end, std::size_t) {
        InferenceState state(net);
        score_span(net, state, labels, ds, stream, begin, end, correct);
      });
  return accuracy_of(correct);
}

double evaluate(const Network& net, InferenceState& state,
                const NeuronLabels& labels, const data::Dataset& ds,
                Rng& rng) {
  SPARKXD_REQUIRE(ds.size() > 0, "cannot evaluate on an empty dataset");
  SPARKXD_REQUIRE(labels.label.size() == net.config().n_neurons,
                  "label table must match the network size");
  const std::uint64_t stream = rng.next_u64();
  std::vector<std::uint8_t> correct(ds.size(), 0);
  score_span(net, state, labels, ds, stream, 0, ds.size(), correct);
  return accuracy_of(correct);
}

TrainedModel train_and_label(const NetworkConfig& cfg,
                             const data::Dataset& train,
                             const data::Dataset& test, std::size_t epochs,
                             Rng& rng) {
  TrainedModel m{Network(cfg), {}, 0.0};
  for (std::size_t e = 0; e < epochs; ++e) train_epoch(m.net, train, rng);
  m.labels = label_neurons(m.net, train, rng);
  m.clean_accuracy = evaluate(m.net, m.labels, test, rng);
  return m;
}

}  // namespace sparkxd::snn
