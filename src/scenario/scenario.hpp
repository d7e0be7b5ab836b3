#pragma once
// Declarative evaluation scenarios.
//
// The paper evaluates SparkXD across a grid of workloads: network sizes,
// tasks, supply-voltage ranges, DRAM organizations, and EDEN error models
// (Figs. 11-12). A Scenario captures one cell of that grid as data — a named,
// self-contained description that lowers to a core::PipelineConfig — so the
// whole grid can be enumerated, filtered, executed, and regression-checked
// without hand-writing configs. The built-in registry covers
// digits/fashion × small/medium networks × commodity/SALP DRAM ×
// Model-0/1/2 error models × flat/deep layer stacks, plus deliberately tiny
// "smoke-*" scenarios whose reports are locked down by golden digests
// (tests/golden/).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "dram/geometry.hpp"
#include "error/error_model.hpp"

namespace sparkxd::scenario {

/// One named evaluation scenario. Fields mirror the axes of the paper's
/// evaluation; everything else (LIF/STDP constants, power model) stays at
/// the framework defaults so scenarios differ only in what they name.
struct Scenario {
  std::string name;         ///< unique registry key, lower-case [a-z0-9-]
  std::string description;  ///< one line shown by `sparkxd_run --list`

  data::Task task = data::Task::kDigits;
  std::size_t n_neurons = 64;
  /// Spiking hidden layer sizes, input side first (the `layers` axis).
  /// Empty = the legacy single-layer network; non-empty lowers to a deep
  /// stack with per-layer tolerance analysis and per-layer error-aware
  /// mapping (per-layer BER_th + placement stats in the report).
  std::vector<std::size_t> hidden_neurons;
  std::size_t train_samples = 250;
  std::size_t test_samples = 100;
  std::size_t baseline_epochs = 1;
  /// Ascending fault-training BER stages (Algorithm 1 schedule).
  std::vector<double> ber_stages = {1e-5, 1e-3};
  std::size_t eval_trials = 1;

  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  bool salp = false;  ///< per-subarray row buffers (§IV-D)
  /// Refresh axis: disabled (default, pre-refresh behavior), nominal, or
  /// reduced-rate. A simulated policy also enables the retention-failure
  /// error component at the matching interval multiplier when lowering to a
  /// PipelineConfig, so timing, energy, and error injection stay coupled.
  dram::RefreshPolicy refresh;
  error::ErrorModelSpec error_model;
  /// ECC axis: disabled (default, the unprotected legacy path) or one of
  /// the pluggable schemes (parity/secded/hsiao/bch, optionally with a
  /// large codeword). Lowered verbatim into PipelineConfig::ecc.
  error::EccSpec ecc;
  /// Strictly descending supply-voltage grid (paper: 1.325 .. 1.025 V).
  std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  std::uint64_t seed = 42;
  /// Inference accumulator for every evaluation pass (training always sums
  /// in float over the transposed layout). kEvent is the float mode, the
  /// bit-exact reference every golden but one was produced by; kEventFx is
  /// numerically different (fixed-point drive) and golden-locked
  /// separately.
  snn::EngineKind engine = snn::EngineKind::kEvent;
  /// Per-layer (voltage x refresh x ECC) operating-point search
  /// (core::assign_layer_knobs). Off by default; when on, the report gains
  /// the layer_knobs block and the digest its K<n> lines — knob-free
  /// scenarios (including every pre-knobs golden) are byte-identical.
  bool layer_knobs = false;

  /// Lowers the scenario to the pipeline configuration it describes.
  [[nodiscard]] core::PipelineConfig pipeline_config() const;

  /// Validates the name (non-empty, [a-z0-9-]) and the lowered pipeline
  /// configuration. Throws ContractViolation with a specific message.
  void validate() const;
};

/// Names of the tiny scenarios whose digests live in tests/golden/.
/// They finish in well under a second each, so tests and CI can afford to
/// run them at several thread counts. The two `-refresh` entries lock down
/// the refresh/retention axis (nominal cadence and 32x relaxed refresh);
/// `smoke-digits-ecc` locks down the ECC axis (secded + escalation + scrub
/// stats in the digest); `smoke-digits-event-fx` locks down the fixed-point
/// accumulator (the float `event` mode is the default every other golden
/// runs).
inline constexpr std::string_view kGoldenScenarios[] = {
    "smoke-digits-m0",
    "smoke-fashion-salp-m1",
    "smoke-digits-m0-refresh",
    "smoke-fashion-salp-m1-refresh",
    "smoke-digits-deep",
    "smoke-digits-ecc",
    "smoke-digits-event-fx",
    "smoke-digits-knobs",
};

/// The built-in registry: ≥10 scenarios covering the evaluation grid, in a
/// fixed deterministic order, names unique. Built once, then cached.
[[nodiscard]] const std::vector<Scenario>& builtin_scenarios();

/// Looks up a built-in scenario by exact name; nullptr when absent.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// All built-in scenarios whose name contains `substring` (exact substring,
/// case-sensitive), in registry order.
[[nodiscard]] std::vector<Scenario> match_scenarios(std::string_view substring);

/// Short axis label of an error model kind: "m0".."m3".
[[nodiscard]] const char* model_label(error::ErrorModelKind kind) noexcept;

/// Short axis label of a refresh policy: "off", "1x", "8x", "8.5x", ...
[[nodiscard]] std::string refresh_label(const dram::RefreshPolicy& policy);

}  // namespace sparkxd::scenario
