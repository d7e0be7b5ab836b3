#pragma once
// Improving and analyzing the SNN error tolerance — the paper's Algorithm 1
// (§IV-B and §IV-C).
//
// Fault-aware training: starting from the baseline model, bit errors are
// injected into the DRAM-resident weights at a stage BER and the network is
// retrained for one STDP epoch; the BER is then raised (the paper uses 10x
// increments) and the process repeats up to the maximum rate. The network
// gradually learns not to rely on weights stored in weak cells
// (weak-cell locations are fixed — see ErrorInjector).
//
// Tolerance analysis: a linear search over the BER stages finds the largest
// rate whose corrupted-inference accuracy still meets the user bound
// (valid because the accuracy-vs-BER curve is monotonically non-increasing,
// paper Fig. 8).

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "error/ecc_scheme.hpp"
#include "error/injector.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::core {

/// Load-time range clipping of DRAM-resident weights (the EDEN-style
/// mitigation this paper's error-injection setup inherits): any weight read
/// back outside [w_min, kDefaultWeightClip] is clamped. Without it a single
/// upward exponent-bit flip turns a ~0.08 weight into w_max and one corrupted
/// neuron can hijack the WTA competition; with it, bit errors degrade
/// accuracy gradually — the regime the paper's Fig. 11 operates in.
inline constexpr float kDefaultWeightClip = 0.4f;

/// Fault-aware training schedule (paper Algorithm 1 inputs).
struct FaultTrainingConfig {
  /// Ascending BER stages; paper: decades from 1e-9 to 1e-3.
  std::vector<double> ber_stages = {1e-9, 1e-8, 1e-7, 1e-6,
                                    1e-5, 1e-4, 1e-3};
  /// Target accuracy bound: accuracy must stay within this of the error-free
  /// baseline (paper: 1%).
  static constexpr double accuracy_bound = 0.01;
  /// Injections of fresh error draws per accuracy evaluation (averaged).
  std::size_t eval_trials = 1;
  /// Range-clipping bound applied when corrupted weights are loaded.
  static constexpr float weight_clip = kDefaultWeightClip;
};

/// Throws ContractViolation unless `weight_clip` is finite and exceeds the
/// STDP weight floor: the clip range [w_min, weight_clip] must be non-empty.
void require_weight_clip(float weight_clip);

/// One (BER, accuracy) point of an error-tolerance curve.
struct TolerancePoint {
  double ber = 0.0;
  double accuracy = 0.0;
};

/// Output of Algorithm 1.
struct FaultAwareResult {
  snn::TrainedModel improved;  ///< model_1 of Algorithm 1
  double ber_th = 0.0;         ///< maximum tolerable BER meeting the bound
  bool met_target = false;     ///< true if any stage met the bound
  std::vector<TolerancePoint> stage_curve;  ///< accuracy after each stage
};

/// Per-layer injector list for a layer-stack network: entry `l` corrupts
/// layer `l`'s DRAM-resident weights; a null entry leaves that layer clean
/// (used by the per-layer tolerance analysis to corrupt one layer at a
/// time). Size must equal the network's n_layers().
using LayerInjectors = std::vector<const error::ErrorInjector*>;

/// Per-layer ECC protection for corrupted evaluation: the scheme plus the
/// check words computed from that layer's CLEAN weights
/// (error::ecc_encode_buffer). A null scheme leaves the layer unprotected:
/// injection then applies the load-time range clip per flip. Size must
/// equal the network's n_layers().
struct LayerEccState {
  const error::EccScheme* scheme = nullptr;
  const std::vector<std::uint64_t>* checks = nullptr;
};
using LayerEcc = std::vector<LayerEccState>;

/// Per-layer frozen injection tables: entry `l` corrupts layer `l`; a null
/// entry leaves that layer clean. Size must equal the network's n_layers().
using LayerTables = std::vector<const error::FrozenInjection*>;

/// A private corruptible copy of a network for repeated corrupted reads —
/// the one owner of the delta-injection protocol. corrupt() injects every
/// table into the row-major weights with a flip log, scrubs ECC layers and
/// mirrors each logged word into the transposed inference layout; restore()
/// reverts the logs and mirrors back, leaving both layouts bit-identical to
/// the source network. Between the two, net()/state() run inference on the
/// corrupted weights. The copy (O(total weights)) and the InferenceState
/// are paid once; the flip logs keep their capacity, so a corrupt/restore
/// cycle allocates nothing after warm-up (ECC scrubbing aside).
///
/// Rng stream discipline: layer l draws from Rng(inject_seed) on a
/// single-layer stack and from Rng(inject_seed).fork(l) on a deeper one,
/// so each layer's error draw is independent of which other layers are
/// corrupted. core::evaluate_corrupted_ecc keys inject_seed by trial,
/// serve::Engine by request.
class CorruptionScratch {
 public:
  /// Takes the network by value (the private copy).
  explicit CorruptionScratch(snn::Network net);

  /// Corrupts the copy for one read. Layers with a non-null `ecc[l].scheme`
  /// inject raw and are scrubbed against their check words (clip applied to
  /// words the code could not restore; stats[l] receives the scrub counts
  /// when `stats` is non-null); the others clip each flip as it is
  /// injected. Returns the number of injected bit flips, before any scrub.
  /// Requires a restored copy.
  std::size_t corrupt(const LayerTables& tables, const LayerEcc& ecc,
                      std::uint64_t inject_seed,
                      const error::SanitizeRange& clip,
                      error::EccScrubStats* stats = nullptr);

  /// Reverts the last corrupt(): both weight layouts return bit for bit to
  /// the source network's values.
  void restore();

  [[nodiscard]] const snn::Network& net() const noexcept { return net_; }
  [[nodiscard]] snn::InferenceState& state() noexcept { return state_; }

 private:
  snn::Network net_;
  snn::InferenceState state_;
  std::vector<std::vector<error::WeightFlip>> flips_;  ///< per-layer deltas
};

/// Scrub statistics accumulated over all Monte-Carlo trials of one
/// evaluate_corrupted_ecc call, per layer.
using EccScrubTotals = error::EccScrubStats;

/// Evaluates a model whose weights are corrupted at `ber`: every non-null
/// entry of `injectors` corrupts its layer's weights each trial, and
/// `ecc[l]` says how layer l's corruption is read back (see
/// CorruptionScratch::corrupt; `weight_clip` is the clip's upper bound).
/// Averages `trials` fresh error draws; trials run concurrently (see
/// common/parallel), trial t injecting from hash_combine(s, 2t) and
/// encoding from hash_combine(s, 2t+1) with s one draw from `rng`, so the
/// result is deterministic in `rng`'s state and identical at every thread
/// count. The per-layer injection streams do not depend on which other
/// layers are corrupted, which lets the per-layer tolerance analysis reuse
/// the same draws. The flip candidates at `ber` are frozen once
/// (ErrorInjector::freeze) and shared across all trials; each worker owns
/// one CorruptionScratch and reverts only the recorded flips between
/// trials — bit-identical to a snapshot-restore loop (tests/core_test.cpp
/// proves it against a reference implementation). `net` is untouched
/// (const — required for the concurrent per-voltage sweep to share one
/// trained model). When `totals` is non-null it is resized to n_layers and
/// filled with per-layer scrub counts summed over trials, deterministically
/// (trial-ascending reduction).
[[nodiscard]] double evaluate_corrupted_ecc(
    const snn::Network& net, const snn::NeuronLabels& labels,
    const LayerInjectors& injectors, const LayerEcc& ecc, double ber,
    const data::Dataset& test, Rng& rng, std::size_t trials = 1,
    float weight_clip = kDefaultWeightClip,
    std::vector<EccScrubTotals>* totals = nullptr);

/// Unprotected corrupted evaluation: evaluate_corrupted_ecc with a null
/// scheme on every layer.
[[nodiscard]] double evaluate_corrupted(const snn::Network& net,
                                        const snn::NeuronLabels& labels,
                                        const LayerInjectors& injectors,
                                        double ber, const data::Dataset& test,
                                        Rng& rng, std::size_t trials = 1,
                                        float weight_clip = kDefaultWeightClip);

/// Algorithm 1: improves the baseline model's error tolerance and records
/// the largest stage BER whose accuracy meets
/// (baseline.clean_accuracy - cfg.accuracy_bound). Each stage freezes every
/// layer's table once and injects through it before each retraining epoch
/// (layers in order, all drawing serially from `rng`), so STDP learns
/// around the weak cells of EVERY layer's DRAM region; the calibration
/// injection reuses the tables and is reverted through its flip log. Each
/// injector must be built over its layer's training-time (baseline)
/// placement.
[[nodiscard]] FaultAwareResult improve_error_tolerance(
    const snn::TrainedModel& baseline, const FaultTrainingConfig& cfg,
    const LayerInjectors& injectors, const data::Dataset& train,
    const data::Dataset& test, Rng& rng);

/// §IV-C tolerance analysis of one layer: the corrupted accuracy at every
/// BER in `rates` (ascending) plus the largest rate meeting the target.
struct ToleranceAnalysis {
  std::vector<TolerancePoint> curve;
  double ber_th = 0.0;
  bool met_target = false;
};

/// PER-LAYER tolerance analysis (the EnforceSNN/EDEN structure): for each
/// layer of the stack, evaluates the corrupted accuracy at every BER in
/// `rates` (ascending) with ONLY that layer corrupted (all other layers
/// clean) and returns one curve + BER_th per layer, in layer order. A
/// one-layer network yields the single global analysis. Different layers
/// tolerate different BERs — early layers feed every later computation
/// while the output layer is protected by the bias-corrected population
/// vote — and the per-layer BER_th vector is what the error-aware mapping
/// consumes to give each layer its own placement threshold. `injectors`
/// must be fully populated (one non-null injector per layer, built over
/// that layer's placement). Layers consume `rng` serially, so the result
/// is deterministic in its state.
[[nodiscard]] std::vector<ToleranceAnalysis> analyze_layer_tolerance(
    const snn::Network& net, const snn::NeuronLabels& labels,
    const LayerInjectors& injectors, const std::vector<double>& rates,
    double target_accuracy, const data::Dataset& test, Rng& rng,
    std::size_t trials = 1,
    float weight_clip = kDefaultWeightClip);

}  // namespace sparkxd::core
