#pragma once
// Cross-product expansion of scenario axes.
//
// A ScenarioMatrix names a list of values per evaluation axis (task, network
// size, DRAM organization, error model, layer stack, ECC, refresh) and
// expands to the full cross product of Scenarios with deterministic names
// and ordering — the programmatic way to build the paper's Fig. 11/12
// grids, the built-in registry, and ad-hoc sweeps (bench/scenario_matrix).

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace sparkxd::scenario {

/// Network-size axis value: neuron count plus the data budget that makes it
/// trainable on this host (bench_common keeps samples roughly proportional
/// to capacity; sizes here follow the same rule).
struct SizeSpec {
  std::string name;  ///< e.g. "small"
  std::size_t n_neurons = 64;
  std::size_t train_samples = 250;
  std::size_t test_samples = 100;
  std::size_t baseline_epochs = 1;
};

/// DRAM-organization axis value on the paper's LPDDR3 module.
struct GeometrySpec {
  std::string name;  ///< e.g. "commodity", "salp"
  bool salp = false;
};

/// Error-model axis value.
struct ErrorModelAxis {
  std::string name;  ///< e.g. "m0"
  error::ErrorModelSpec spec;
};

/// Refresh-policy axis value (the second approximation axis).
struct RefreshSpec {
  std::string name;  ///< e.g. "nominal-refresh", "relaxed-refresh-8x"
  dram::RefreshPolicy policy;
};

/// ECC axis value (the third approximation axis). The default disabled
/// value keeps legacy matrices unchanged.
struct EccAxis {
  std::string name;  ///< e.g. "ecc-off", "ecc-secded", "ecc-bch512b"
  error::EccSpec spec;
};

/// Layer-stack axis value (the `layers` axis): spiking hidden layer sizes
/// between the input and the excitatory output layer, input side first.
/// An empty list is the flat single-layer network of the paper.
struct LayerStackSpec {
  std::string name = "flat";
  std::vector<std::size_t> hidden;
};

/// Axis lists plus the voltage grid and seed every expanded scenario
/// inherits; every expanded scenario also trains on the two-stage
/// fault-training schedule {1e-5, 1e-3}, written once, in expand(). The
/// other fields stay at the core::PipelineConfig defaults (the paper's
/// LPDDR3 module among them). expand() iterates tasks (outermost), sizes,
/// geometries, error models, layer stacks, ecc schemes and refresh policies
/// (innermost) and names each cell "<task>-<size>-<geometry>-<model>",
/// appending "-<layers>" when the layer-stack axis has more than one value,
/// "-<ecc>" when the ecc axis does, and "-<refresh>" when the refresh axis
/// does, so single-valued axes keep names short and multi-valued axes keep
/// them unique.
struct ScenarioMatrix {
  std::vector<data::Task> tasks = {data::Task::kDigits};
  std::vector<SizeSpec> sizes;
  std::vector<GeometrySpec> geometries;
  std::vector<ErrorModelAxis> error_models;
  std::vector<LayerStackSpec> layer_stacks = {LayerStackSpec{}};
  std::vector<EccAxis> ecc_schemes = {{"ecc-off", error::EccSpec{}}};
  std::vector<RefreshSpec> refresh_policies = {
      {"ref-off", dram::RefreshPolicy::disabled()}};

  /// Strictly descending supply-voltage grid (paper: 1.325 .. 1.025 V).
  std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  std::uint64_t seed = 42;

  /// The cross product. Throws ContractViolation if any axis is empty or an
  /// axis value is unnamed; every produced scenario passes validate().
  /// Because suffixes are only appended for multi-valued axes, two
  /// different axis tuples could otherwise lower to the same name and
  /// silently shadow each other — expand() guards against that by throwing
  /// with BOTH source tuples when a name collision occurs.
  [[nodiscard]] std::vector<Scenario> expand() const;
};

}  // namespace sparkxd::scenario
