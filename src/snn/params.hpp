#pragma once
// Parameter bundles for the SNN substrate.
//
// The architecture follows the paper's Fig. 4a (the Diehl & Cook-style
// unsupervised network): every input pixel is connected to every excitatory
// LIF neuron; each neuron's spikes laterally inhibit all other neurons
// (competition); synapses learn with STDP; inputs are rate-coded Poisson
// spike trains.
//
// The constants are tuned for 28x28 inputs with weights in [0, 1] and a unit
// firing threshold; they are deliberately stable across the network sizes the
// paper sweeps (N400..N3600).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sparkxd::snn {

/// Accumulator selector for Network::infer (training always sums in float,
/// gathering from the same transposed layout as kEvent). Every value runs
/// the same kernel: a transposed-column gather over each timestep's spike
/// list that skips a layer whose input wave is empty while its membrane
/// state sits exactly at rest, and short-circuits an all-zero sample — only
/// where the step is provably the identity.
///
///   kEvent    float accumulation in spike order (the per-neuron addition
///             order of the row-major walk). The default and the bit-exact
///             baseline; every golden digest but smoke-digits-event-fx was
///             produced by it.
///   kEventFx  fixed-point accumulation: the gather quantizes weights to
///             Q47.16 on the fly and sums in int64, making the per-neuron
///             drive independent of addition order. Numerically different
///             from the float mode (locked by its own golden,
///             smoke-digits-event-fx).
enum class EngineKind : std::uint8_t {
  kEvent = 0,
  kEventFx = 1,
};

/// Stable axis label: "event", "event-fx".
[[nodiscard]] constexpr const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kEvent:
      return "event";
    case EngineKind::kEventFx:
      return "event-fx";
  }
  return "engine?";
}

/// Leaky integrate-and-fire neuron constants (paper §II-A, Fig. 4b).
///
/// The neurons always compete, in training and at inference: per discrete
/// step a hard winner-take-all keeps only the crossing neuron with the
/// highest margin (the discrete-time limit of the paper's strong lateral
/// inhibition — with coarse steps, simultaneous crossings are common and
/// would otherwise defeat the competition unsupervised STDP relies on to
/// differentiate receptive fields), and every spike subtracts `inhibition`
/// from all other neurons.
struct LifParams {
  static constexpr float v_rest = 0.0f;    ///< resting potential (leak target)
  static constexpr float v_reset = 0.0f;   ///< potential after a spike
  /// Base firing threshold (before homeostasis).
  static constexpr float v_thresh = 1.0f;
  static constexpr float tau_m_ms = 25.0f;  ///< membrane leak time constant
  static constexpr int refractory_steps = 3;  ///< silent steps after a spike
  /// Adaptive-threshold (homeostasis) increment added on every spike; makes
  /// neurons that fire often harder to fire, spreading receptive fields.
  static constexpr float theta_plus = 0.02f;
  /// Adaptive-threshold decay time constant.
  static constexpr float tau_theta_ms = 6.0e4f;
  /// Lateral inhibition: potential subtracted from every *other* neuron for
  /// each spike fired in a timestep.
  static constexpr float inhibition = 5.0f;
};

/// STDP constants.
///
/// We use the postsynaptic-spike-triggered formulation Diehl & Cook report
/// for their published results: on a postsynaptic spike every incoming
/// synapse moves by
///     dw = eta * (x_pre - x_target) * (w_max - w),
/// where x_pre is the presynaptic trace. Synapses whose input fired recently
/// (x_pre near 1) are potentiated; stale synapses (x_pre near 0) are
/// depressed toward w_min. The (w_max - w) factor is the soft weight bound.
/// This rule is equivalent in fixed point to the pre/post pair rule but only
/// touches a neuron's (contiguous) weight row when that neuron spikes, which
/// matters on this single-core host.
struct StdpParams {
  static constexpr float eta = 0.25f;  ///< learning rate at postsynaptic spikes
  /// Presynaptic-trace offset (depression baseline).
  static constexpr float x_target = 0.35f;
  /// Presynaptic trace time constant.
  static constexpr float tau_pre_ms = 20.0f;
  static constexpr float w_min = 0.0f;
  static constexpr float w_max = 1.0f;
};

/// Full network configuration.
///
/// By default the network is the paper's single excitatory layer
/// (n_inputs -> n_neurons). `hidden_neurons` generalizes it to a layer
/// STACK: each entry inserts one spiking LIF hidden layer between the input
/// and the excitatory output layer, so the stack is
///     n_inputs -> hidden_neurons[0] -> ... -> n_neurons.
/// Every layer keeps its own synaptic weight matrix (the per-layer arrays
/// the approximate-DRAM machinery corrupts and maps independently — the
/// per-layer error tolerance EnforceSNN/EDEN exploit). An empty
/// `hidden_neurons` reproduces the legacy single-layer network bit for bit.
struct NetworkConfig {
  std::size_t n_inputs = 784;   ///< pixels
  std::size_t n_neurons = 400;  ///< excitatory OUTPUT neurons (paper:
                                ///< 400..3600); the last layer of the stack
  /// Sizes of the spiking hidden layers, input side first; empty = the
  /// legacy single-layer network.
  std::vector<std::size_t> hidden_neurons;
  std::size_t timesteps = 60;   ///< simulation steps per sample
  static constexpr float dt_ms = 1.0f;  ///< timestep width
  /// Poisson rate coding: spike probability per step for a full-intensity
  /// pixel (pixel value scales linearly; paper §V "rate coding, Poisson").
  static constexpr float max_rate = 0.30f;
  /// After each training sample every neuron's incoming weights are rescaled
  /// to this L1 sum (Diehl & Cook weight normalization; keeps total drive
  /// constant while STDP redistributes weight mass).
  static constexpr float norm_target = 11.0f;
  std::uint64_t seed = 1;  ///< weight-init / spike-train seed
  /// Inference accumulator for Network::infer (see EngineKind). Not part of
  /// the serialized model (model_io writes config fields individually): the
  /// engine is a runtime execution choice, not model identity.
  EngineKind engine = EngineKind::kEvent;
  static constexpr StdpParams stdp{};  ///< the STDP constants, as cfg.stdp

  // ---- Layer-stack geometry helpers (layer 0 = input side, layer
  // n_layers()-1 = the excitatory output layer). -------------------------
  [[nodiscard]] std::size_t n_layers() const noexcept {
    return hidden_neurons.size() + 1;
  }
  /// Fan-in of layer `l`.
  [[nodiscard]] std::size_t layer_inputs(std::size_t l) const noexcept {
    return l == 0 ? n_inputs : hidden_neurons[l - 1];
  }
  /// Neuron count of layer `l`.
  [[nodiscard]] std::size_t layer_neurons(std::size_t l) const noexcept {
    return l == hidden_neurons.size() ? n_neurons : hidden_neurons[l];
  }
  /// Synapse (FP32 weight) count of layer `l`.
  [[nodiscard]] std::size_t layer_weight_count(std::size_t l) const noexcept {
    return layer_inputs(l) * layer_neurons(l);
  }
};

}  // namespace sparkxd::snn
