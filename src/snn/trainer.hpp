#pragma once
// Training, neuron labeling and evaluation for the unsupervised network.
//
// Unsupervised STDP produces neurons with class-selective receptive fields;
// classification then works by (1) assigning each neuron the class it fires
// most for on labelled data ("labeling"), and (2) at inference, predicting
// the class whose neurons fired most (spike-count vote) — the standard
// readout for this architecture, and the one the paper's accuracy numbers
// are based on.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "snn/network.hpp"

namespace sparkxd::snn {

/// Per-neuron class assignments plus calibration data for the readout.
///
/// `bias` is each neuron's mean spike count over the labelling set; the
/// prediction vote uses (count - bias), so neurons that fire
/// indiscriminately (untrained receptive fields, or neurons inflated by
/// weight corruption) cancel out of the vote instead of dragging their
/// assigned class — this bias correction is what keeps the readout robust
/// under approximate-DRAM errors.
struct NeuronLabels {
  std::vector<std::int32_t> label;  ///< class per neuron, -1 if never fired
  std::vector<double> bias;         ///< mean spikes/sample per neuron
  std::size_t num_classes = 0;
};

/// Runs one unsupervised STDP pass over the dataset (in order).
void train_epoch(Network& net, const data::Dataset& ds, Rng& rng);

/// Assigns each neuron the class for which its average spike count (over the
/// labelled set, inference mode) is highest. Samples run serially through
/// Network::infer on the float kernel (kEvent), drawing from `rng` in order;
/// the network's configured engine is restored afterwards. Rejects a
/// dataset whose pixel width differs from the network's input or whose
/// labels fall outside [0, ds.num_classes).
[[nodiscard]] NeuronLabels label_neurons(Network& net,
                                         const data::Dataset& ds, Rng& rng);

/// The bias-corrected population vote over one sample's spike counts: the
/// class with the highest mean (count - bias) among its labelled neurons.
/// Returns -1 when no labelled neuron exists. Throws ContractViolation when
/// a neuron that `counts` covers has no label or bias entry, or a label at
/// or above num_classes.
[[nodiscard]] std::int32_t vote_spike_counts(
    const std::vector<std::uint32_t>& counts, const NeuronLabels& labels);

/// Fraction of correctly classified samples (inference mode). Samples are
/// scored concurrently (see common/parallel); each worker owns only an
/// InferenceState (membrane dynamics + scratch, O(n_neurons)) and reads the
/// network's weights in place, so fan-out never copies the weight matrix.
/// Each sample's spike trains fork from one draw of `rng`, so the result is
/// deterministic and thread-count independent. `net` is untouched (const),
/// which is what lets concurrent sweeps share one trained model.
[[nodiscard]] double evaluate(const Network& net, const NeuronLabels& labels,
                              const data::Dataset& ds, Rng& rng);

/// Hot-path overload: identical result and streams, scoring serially
/// through a caller-owned InferenceState with no per-call copies or
/// fan-out. Intended for callers already inside a parallel region (the
/// Monte-Carlo trial loop) that reuse one state across many evaluations.
[[nodiscard]] double evaluate(const Network& net, InferenceState& state,
                              const NeuronLabels& labels,
                              const data::Dataset& ds, Rng& rng);

/// A trained, labelled model with its clean-weight accuracy.
struct TrainedModel {
  Network net;
  NeuronLabels labels;
  double clean_accuracy = 0.0;
};

/// Convenience: trains `epochs` STDP passes, labels on the training set, and
/// evaluates on the test set. `rng` seeds all stochastic parts.
[[nodiscard]] TrainedModel train_and_label(const NetworkConfig& cfg,
                                           const data::Dataset& train,
                                           const data::Dataset& test,
                                           std::size_t epochs, Rng& rng);

}  // namespace sparkxd::snn
