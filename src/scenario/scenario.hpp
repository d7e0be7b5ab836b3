#pragma once
// Declarative evaluation scenarios.
//
// The paper evaluates SparkXD across a grid of workloads: network sizes,
// tasks, supply-voltage ranges, DRAM organizations, and EDEN error models
// (Figs. 11-12). A Scenario captures one cell of that grid as data — a
// named core::PipelineConfig — so the whole grid can be enumerated,
// filtered, executed, and regression-checked without hand-writing configs.
// The built-in registry covers digits/fashion × small/medium networks ×
// commodity/SALP DRAM × Model-0/1/2 error models × flat/deep layer stacks ×
// refresh × ECC, plus deliberately tiny "smoke-*" scenarios whose reports
// are locked down by golden digests (tests/golden/).

#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"

namespace sparkxd::scenario {

/// One named evaluation scenario: a pipeline configuration with a name.
/// Every axis of the paper's evaluation is a PipelineConfig field; a
/// registry or matrix entry sets the ones it names and leaves the rest
/// (LIF/STDP constants, power model) at the framework defaults.
struct Scenario : core::PipelineConfig {
  std::string name;         ///< unique registry key, lower-case [a-z0-9-]
  std::string description;  ///< one line shown by `sparkxd_run --list`

  /// The configuration run_pipeline takes: this scenario's PipelineConfig
  /// with the network seeded from `seed` and, under a simulated refresh
  /// policy, the retention-failure error component enabled at the policy's
  /// interval multiplier, so timing, energy and error injection stay
  /// coupled.
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

namespace sparkxd::core {

// A Scenario passed straight to run_pipeline would be sliced to its
// PipelineConfig without the seed stamp and the refresh/retention coupling
// of pipeline_config(); run `s.pipeline_config()` instead.
PipelineReport run_pipeline(const scenario::Scenario&) = delete;
PipelineReport run_pipeline(const scenario::Scenario&, ArtifactState*) = delete;

}  // namespace sparkxd::core
