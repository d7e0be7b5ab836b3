#pragma once
// The serving artifact — the frozen half of the artifact/serve split.
//
// SparkXD's offline pipeline (train -> fault-aware training -> tolerance
// analysis -> error-aware mapping -> voltage sweep) chooses an OPERATING
// POINT: a supply voltage, its module BER, and a per-layer Algorithm-2
// placement whose weak cells at that BER are frozen into injection
// tables. EDEN and EnforceSNN both deploy approximate DRAM exactly this
// way — a fixed configuration chosen offline, then run continuously. A
// ServingArtifact serializes what a server reads of it (the model_io
// model, the operating point and one FrozenInjection per layer; the
// placement itself is not stored, its effect is the frozen table) into ONE
// file ("SXDA", version 2) that a long-lived server loads once and shares
// read-only across every engine; see serve::Engine for the per-request
// determinism contract built on top.
//
// Export: `sparkxd_run --scenario NAME --export-artifact FILE`.
// Serve:  `sparkxd_serve --artifact FILE`.

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "error/injector.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::serve {

/// One layer's share of the deployed operating point (a struct because
/// perfbench/ reads `layers[l].frozen`).
struct LayerArtifact {
  /// Read-only injection plan at the operating BER, shared by all engines.
  error::FrozenInjection frozen;
};

/// Everything the serving daemon needs, loaded once and then immutable.
struct ServingArtifact {
  explicit ServingArtifact(snn::TrainedModel m) : model(std::move(m)) {}

  std::string scenario;      ///< scenario name this was exported from
  double v_supply = 0.0;     ///< deployed supply voltage
  double module_ber = 0.0;   ///< operating bit-error rate at v_supply
  float weight_clip = 0.0f;  ///< load-time range clip for corrupted weights
  snn::TrainedModel model;   ///< improved (fault-aware) model + labels
  std::vector<LayerArtifact> layers;  ///< one per network layer

  /// Shape/consistency checks; throws ContractViolation with a specific
  /// message. Called by save_artifact and load_artifact.
  void validate() const;
};

/// Assembles an artifact from a pipeline run's capture (core::ArtifactState
/// filled by core::run_pipeline). Throws if the capture is incomplete.
[[nodiscard]] ServingArtifact make_artifact(std::string scenario_name,
                                            core::ArtifactState&& captured);

/// Writes the artifact to one file. Throws ContractViolation on I/O failure.
void save_artifact(const ServingArtifact& artifact, const std::string& path);

/// Loads an artifact written by save_artifact. Throws on I/O failure, bad
/// magic/version, or a corrupt/truncated payload.
[[nodiscard]] ServingArtifact load_artifact(const std::string& path);

/// load_artifact into a refcounted handle — the form Server::reload() takes
/// for hot reload, where a busy slot may keep the old generation alive
/// after the swap.
[[nodiscard]] std::shared_ptr<const ServingArtifact> load_artifact_shared(
    const std::string& path);

}  // namespace sparkxd::serve
