#pragma once
// The fully-connected unsupervised SNN of the paper's Fig. 4a — generalized
// from the single excitatory layer to a layer STACK: rate-coded Poisson
// input -> zero or more spiking LIF hidden layers -> the excitatory LIF
// output layer, every layer trained with STDP and laterally inhibited.
// Synaptic weights are stored per layer as FP32 row-major [neuron][input] —
// exactly the per-layer arrays the approximate-DRAM error injector corrupts
// and the error-aware mapping places independently (per-layer BER_th, the
// EnforceSNN/EDEN structure).
//
// Each layer also keeps a TRANSPOSED copy of its weights ([input][neuron]),
// and both training and inference gather from it: the per-timestep
// synaptic gather runs spike-outer / neuron-inner over contiguous memory,
// which vectorizes and breaks the per-neuron serial addition chain of a
// row-major walk. Each neuron still adds its inputs in spike-list order —
// the row-major walk's sequence — so results are bitwise those of a
// row-major kernel (tests/train_oracle_util.hpp replays one for training;
// the golden digests lock the rest down).
//
// Invariant: both layouts hold the same weights after every Network call;
// the only exception is a word a weights_delta caller has written and not
// yet mirrored. A network's parameters are written in three ways only, and
// none hands out a resizable vector:
//   * construction: from a config (random initial weights) or from stored
//     parameters (model loading, dequantized copies), each transpose built
//     once;
//   * training: STDP writes every updated row through to its transposed
//     column, and normalize_rows scales both;
//   * weights_delta(l) is a span over the row-major array for in-place
//     fault injection; the caller mirrors every word it changed through
//     mirror_weight() (error::WeightFlip logs carry exactly those words),
//     or closes the write with one sync_transpose().
// Inference has exactly one entry point and one kernel, infer(); every API
// addresses a layer by index (layer 0 = input side), also on a one-layer
// network.
//
// Every trained parameter (the weights in both layouts and the adaptive
// thresholds) has one owner, the Network. An InferenceState holds only
// per-sample dynamics and scratch, so whichever network runs infer() reads
// its own current weights and thresholds.
//
// Bit-exactness contract: a NetworkConfig with empty `hidden_neurons` is
// the single-layer network of the paper — the output layer draws its
// initial weights from Rng(seed) — so flat results do not depend on the
// layer-stack generalization.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoding.hpp"
#include "snn/lif.hpp"
#include "snn/params.hpp"
#include "snn/stdp.hpp"

namespace sparkxd::snn {

class Network;

/// The config checks of both Network constructors, run before the network
/// allocates anything: positive dimensions, at most 2^32 synapses per
/// layer, 1..2^16 timesteps. Throws ContractViolation; returns `cfg`.
const NetworkConfig& require_valid(const NetworkConfig& cfg);

/// Per-worker mutable inference state over a shared const Network: per
/// layer, the LIF dynamics (potentials and refractory counters) and the
/// scratch buffers, plus the Poisson encoder. It holds no parameters: the
/// weights (transposed layouts) and the frozen adaptive thresholds are read
/// from the network that runs infer(), which must have the shape of the
/// one the state was built from. Constructing one is O(sum of layer
/// neurons); a full Network copy is O(total weights). This is what lets
/// evaluation workers fan out (and Monte-Carlo trials repeat) without
/// copying the weight matrices.
class InferenceState {
 public:
  explicit InferenceState(const Network& net);

 private:
  friend class Network;
  /// One slice per layer of the stack (index matches Network layers).
  struct LayerSlice {
    LifLayer lif;
    std::size_t n_in = 0;  ///< fan-in of the layer the slice was built for
    std::vector<float> current;
    std::vector<std::uint32_t> out_spikes;
    std::vector<std::int64_t> acc;  ///< Q47.16 accumulator (kEventFx)
    bool skip_ok = false;  ///< zero-input step provably identity at rest
    /// LIF state exactly at rest: true from the per-sample reset until the
    /// layer's first integration step (no mid-sample re-arm — float decay
    /// cannot reach exact rest within a sample).
    bool at_rest = true;
  };
  std::vector<LayerSlice> layers_;
  PoissonEncoder encoder_;
  std::vector<std::uint32_t> in_spikes_;
};

/// A complete network instance (per-layer weights + neuron state + encoder).
class Network {
 public:
  /// Random initial weights (see the bit-exactness contract above), rows
  /// normalized, zero thresholds. Throws ContractViolation for a
  /// non-positive size or timestep count, or a layer of over 2^32 synapses,
  /// before allocating anything.
  explicit Network(const NetworkConfig& cfg);

  /// Each layer's stored row-major weights and thresholds (layer 0 = input
  /// side), kept as they are: draws no Rng, normalizes nothing. Throws
  /// ContractViolation for a config Network(cfg) rejects, and unless each
  /// layer has layer_neurons(l) x layer_inputs(l) finite weights small
  /// enough for its Q47.16 accumulator (kEventFx) and layer_neurons(l)
  /// finite thresholds.
  Network(const NetworkConfig& cfg, std::vector<std::vector<float>> weights,
          std::vector<std::vector<float>> thetas);

  [[nodiscard]] const NetworkConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_layers() const noexcept {
    return layers_.size();
  }

  // ---- Per-layer weight access (layer 0 = input side). -----------------

  /// Layer `l`'s synaptic weight matrix, row-major
  /// [layer_neurons(l)][layer_inputs(l)].
  [[nodiscard]] const std::vector<float>& weights(std::size_t l) const {
    return layer(l).w;
  }

  /// In-place access for DELTA fault injection: a span over layer `l`'s
  /// row-major weights. The caller mirrors every word it changes via
  /// mirror_weight() before the next call that reads the transpose —
  /// error::WeightFlip logs carry exactly those words — or closes the
  /// write with sync_transpose().
  [[nodiscard]] std::span<float> weights_delta(std::size_t l) {
    return layer(l).w;
  }

  /// Copies the current value of layer `l`'s flat weight `idx` into the
  /// transposed layout (companion of weights_delta(l)). Throws
  /// ContractViolation when `idx` lies past the layer's
  /// layer_neurons(l) x layer_inputs(l) weights.
  void mirror_weight(std::size_t l, std::size_t idx) {
    Layer& lay = layer(l);
    SPARKXD_REQUIRE(idx < lay.w.size(),
                    "mirror_weight index past the layer's weights");
    const std::size_t n = idx / lay.n_in;
    const std::size_t i = idx % lay.n_in;
    lay.wt[i * lay.n_out + n] = lay.w[idx];
  }

  /// Layer `l`'s transposed weights [input][neuron]. Read-only — the
  /// row-major array stays canonical.
  [[nodiscard]] const std::vector<float>& weights_T(std::size_t l) const {
    return layer(l).wt;
  }

  /// Layer `l`'s adaptive thresholds, one per neuron: set at construction,
  /// trained by train_step, frozen by infer.
  [[nodiscard]] const std::vector<float>& thetas(std::size_t l) const {
    return layer(l).theta;
  }

  /// Selects the inference accumulator for infer() (see EngineKind).
  /// Training (train_step) always sums in float, through kEvent's gather.
  void set_engine(EngineKind engine) noexcept { cfg_.engine = engine; }
  [[nodiscard]] EngineKind engine() const noexcept { return cfg_.engine; }

  /// Rebuilds every layer's transposed copy from its row-major array:
  /// closes a weights_delta write made without per-word mirrors.
  void sync_transpose();

  /// One STDP training pass: presents one image for config().timesteps
  /// steps with STDP and threshold adaptation active on every layer, then
  /// re-normalizes all weight rows. Returns the OUTPUT layer's per-neuron
  /// spike counts. `rng` drives the Poisson spike trains (the only
  /// stochastic part — hidden layers are deterministic given their input
  /// spikes).
  std::vector<std::uint32_t> train_step(const std::vector<float>& image,
                                        Rng& rng);

  /// Pure inference through a caller-owned InferenceState: const on the
  /// network, reusing the state's buffers — the single inference path
  /// (labelling, evaluation, Monte-Carlo trials and serving all run it).
  /// Reads this network's thresholds, frozen.
  ///
  /// One kernel: a transposed-column gather over each timestep's spike
  /// list. An all-zero image short-circuits the whole sample, and an empty
  /// wave into a layer still at rest is skipped — both only where the step
  /// is provably the identity, so counts and Rng consumption equal a run
  /// that integrates every layer every step. config().engine picks the
  /// accumulator: kEvent sums in float (the per-neuron addition order of
  /// the row-major walk); kEventFx sums Q47.16 fixed point
  /// (order-independent, numerically different from float). Throws
  /// ContractViolation for a state built for a differently shaped network.
  std::vector<std::uint32_t> infer(InferenceState& state,
                                   const std::vector<float>& image,
                                   Rng& rng) const;

  /// Rescales every neuron's incoming weights (every layer) to sum to
  /// norm_target (no-op for rows summing to <= 0), in both layouts.
  void normalize_rows();

 private:
  friend class InferenceState;

  /// One layer of the stack: weights in both layouts, the adaptive
  /// thresholds, and the training pass's neuron state.
  struct Layer {
    std::size_t n_in = 0;
    std::size_t n_out = 0;
    std::vector<float> w;   ///< canonical row-major [neuron][input]
    std::vector<float> wt;  ///< transposed [input][neuron], the gather layout
    std::vector<float> theta;  ///< adaptive thresholds, one per neuron
    LifLayer lif;              ///< train_step's dynamics
    PreTraces traces;
    // Reused scratch buffers.
    std::vector<float> current;
    std::vector<std::uint32_t> out_spikes;

    /// Takes checked n_out x n_in weights and n_out thresholds, and builds
    /// the transpose.
    Layer(std::size_t n_in, std::vector<float> w, std::vector<float> theta);

    /// current[n] = sum of wt[i][n] over `spikes`, added in list order:
    /// the float synaptic gather of both train_step and infer.
    void gather(const std::vector<std::uint32_t>& spikes,
                std::vector<float>& current) const;
    /// normalize_rows for one layer: sums each neuron over `wt`
    /// (vectorised across neurons, ascending inputs) and scales both
    /// layouts. Clobbers `current`.
    void normalize();
    /// Rebuilds `wt` from `w`.
    void transpose();
  };

  [[nodiscard]] Layer& layer(std::size_t l) {
    SPARKXD_REQUIRE(l < layers_.size(), "layer index out of range");
    return layers_[l];
  }
  [[nodiscard]] const Layer& layer(std::size_t l) const {
    SPARKXD_REQUIRE(l < layers_.size(), "layer index out of range");
    return layers_[l];
  }
  NetworkConfig cfg_;
  std::vector<Layer> layers_;  ///< [0] = input side, back() = output layer
  PoissonEncoder encoder_;
  std::vector<std::uint32_t> in_spikes_;  ///< reused input-spike scratch
};

}  // namespace sparkxd::snn
