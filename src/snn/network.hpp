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
// Inference additionally maintains a TRANSPOSED copy of each layer's
// weights ([input][neuron]): the per-timestep synaptic gather then runs
// spike-outer / neuron-inner over contiguous memory, which vectorizes and
// breaks the per-neuron serial addition chain of the row-major walk. The
// per-neuron addition *sequence* is unchanged (same spikes, same order), so
// inference results are bitwise identical to the row-major kernel — the
// golden digests lock this down. Training (train_step) keeps reading the
// row-major arrays directly (STDP updates rows mid-sample), so the
// transposes are resynced lazily before the next inference. Inference has
// exactly one entry point and one kernel, infer(); every API addresses a
// layer by index (layer 0 = input side), also on a one-layer network.
//
// Bit-exactness contract: a NetworkConfig with empty `hidden_neurons` is
// the single-layer network of the paper — the output layer draws its
// initial weights from Rng(seed) — so flat results do not depend on the
// layer-stack generalization.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoding.hpp"
#include "snn/lif.hpp"
#include "snn/params.hpp"
#include "snn/stdp.hpp"

namespace sparkxd::snn {

class Network;

/// Per-worker mutable inference state over a shared const Network: per
/// layer, the LIF dynamics (a copy of the layer: potentials, refractory
/// counters and the frozen adaptive thresholds) and the scratch buffers,
/// plus the Poisson encoder — but NOT the weights, which are read from the
/// network's transposed layouts. Constructing one is O(sum of layer
/// neurons); a full Network copy is O(total weights). This is what lets
/// evaluation workers fan out (and Monte-Carlo trials repeat) without
/// copying the weight matrices.
class InferenceState {
 public:
  explicit InferenceState(const Network& net);

  /// Recopies the LIF slices (potentials, refractory counters, thetas) from
  /// the network — O(sum of layer neurons), no weight traffic. Network::infer
  /// calls this automatically when the network's theta generation has moved
  /// past the state's snapshot (e.g. the state was built before fault-aware
  /// retraining), so a stale state can never silently infer with old
  /// thresholds.
  void resync(const Network& net);

  /// Theta generation this state was last synced against.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

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
  std::uint64_t generation_ = 0;
};

/// A complete network instance (per-layer weights + neuron state + encoder).
class Network {
 public:
  explicit Network(const NetworkConfig& cfg);

  [[nodiscard]] const NetworkConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t n_layers() const noexcept {
    return layers_.size();
  }

  // ---- Per-layer weight access (layer 0 = input side). -----------------

  /// Layer `l`'s synaptic weight matrix, row-major
  /// [layer_neurons(l)][layer_inputs(l)]. Mutable access exists so the
  /// error injector can corrupt the stored bits and the fault-aware trainer
  /// can revert them; it invalidates that layer's transposed
  /// inference copy, which is rebuilt before the next inference.
  [[nodiscard]] const std::vector<float>& weights(std::size_t l) const {
    return layer(l).w;
  }
  [[nodiscard]] std::vector<float>& weights_mut(std::size_t l) {
    Layer& lay = layer(l);
    lay.wt_synced = false;
    return lay.w;
  }

  /// Hot-path mutable access for DELTA fault injection: unlike
  /// weights_mut(l) this does NOT invalidate the transposed copy. The caller
  /// must mirror every word it changes via mirror_weight() before the next
  /// inference — error::WeightFlip logs carry exactly those words. Requires
  /// a synced transpose (sync_transpose() first), so the invariant "both
  /// layouts agree except at the words the caller is about to mirror" holds.
  [[nodiscard]] std::vector<float>& weights_delta(std::size_t l) {
    Layer& lay = layer(l);
    SPARKXD_REQUIRE(lay.wt_synced,
                    "weights_delta needs a synced transpose — call "
                    "sync_transpose() first (or use weights_mut(l))");
    return lay.w;
  }

  /// Copies the current value of layer `l`'s flat weight `idx` into the
  /// transposed layout (companion of weights_delta(l)). Throws
  /// ContractViolation when `idx` lies past the layer's weight array.
  void mirror_weight(std::size_t l, std::size_t idx) {
    Layer& lay = layer(l);
    SPARKXD_REQUIRE(idx < lay.w.size(),
                    "mirror_weight index past the layer's weights");
    const std::size_t n = idx / lay.n_in;
    const std::size_t i = idx % lay.n_in;
    lay.wt[i * lay.n_out + n] = lay.w[idx];
  }

  /// Layer `l`'s transposed weights [input][neuron]; requires a synced
  /// transpose. Read-only — the row-major array stays canonical.
  [[nodiscard]] const std::vector<float>& weights_T(std::size_t l) const {
    const Layer& lay = layer(l);
    SPARKXD_REQUIRE(lay.wt_synced, "transposed weights are stale — call "
                                   "sync_transpose() first");
    return lay.wt;
  }

  /// Layer `l`'s adaptive thresholds (exposed for snapshot/restore
  /// alongside the weights).
  [[nodiscard]] const std::vector<float>& thetas(std::size_t l) const {
    return layer(l).lif.thetas();
  }
  [[nodiscard]] std::vector<float>& thetas_mut(std::size_t l) {
    // Mutable access presumes mutation: any InferenceState snapshotted
    // before this call now holds stale thresholds and must resync.
    ++theta_generation_;
    return layer(l).lif.thetas_mut();
  }

  /// Monotone counter bumped whenever trained thresholds may have changed
  /// (training passes, thetas_mut). InferenceState snapshots it; a mismatch
  /// at infer() time triggers a cheap resync instead of silently inferring
  /// with stale thetas.
  [[nodiscard]] std::uint64_t theta_generation() const noexcept {
    return theta_generation_;
  }

  /// Selects the inference engine for infer() (see EngineKind). Training
  /// (train_step) always runs the dense row-major kernel.
  void set_engine(EngineKind engine) noexcept { cfg_.engine = engine; }
  [[nodiscard]] EngineKind engine() const noexcept { return cfg_.engine; }

  /// Rebuilds every stale transposed weight copy from its row-major array.
  void sync_transpose();
  /// True when every layer's transposed copy is in sync.
  [[nodiscard]] bool transpose_synced() const noexcept;

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
  /// Requires synced transposes. Resyncs the state first if the network's
  /// theta generation moved past its snapshot. Thresholds are frozen.
  ///
  /// One kernel: a transposed-column gather over each timestep's spike
  /// list. An all-zero image short-circuits the whole sample, and an empty
  /// wave into a layer still at rest is skipped — both only where the step
  /// is provably the identity, so counts and Rng consumption equal a run
  /// that integrates every layer every step. config().engine picks the
  /// accumulator: kDense and kEvent sum in float (the per-neuron addition
  /// order of the row-major walk); kEventFx sums Q47.16 fixed point
  /// (order-independent, numerically different from float). Throws
  /// ContractViolation for a state built for a differently shaped network.
  std::vector<std::uint32_t> infer(InferenceState& state,
                                   const std::vector<float>& image,
                                   Rng& rng) const;

  /// Rescales every neuron's incoming weights (every layer) to sum to
  /// norm_target (no-op for all-zero rows).
  void normalize_rows();

  /// Resets membrane dynamics (called automatically between samples).
  void reset_dynamics();

 private:
  friend class InferenceState;

  /// One layer of the stack: weights in both layouts plus neuron state.
  struct Layer {
    std::size_t n_in = 0;
    std::size_t n_out = 0;
    std::vector<float> w;   ///< canonical row-major [neuron][input]
    std::vector<float> wt;  ///< transposed [input][neuron], inference kernel
    bool wt_synced = false;
    LifLayer lif;
    PreTraces traces;
    // Reused scratch buffers.
    std::vector<float> current;
    std::vector<std::uint32_t> out_spikes;

    Layer(std::size_t n_in, std::size_t n_out, const NetworkConfig& cfg);
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
  std::uint64_t theta_generation_ = 0;    ///< see theta_generation()
};

}  // namespace sparkxd::snn
