#pragma once
// Per-layer (voltage x refresh x ECC) operating-point search — the
// EnforceSNN/EDEN completion of the per-layer follow-ons: EnforceSNN maps
// less-tolerant layers to shorter-refresh regions, EDEN assigns DRAM
// parameters per layer; assign_layer_knobs does both across all three
// approximation axes at once.
//
// For every layer the search walks the cross-product of the scenario's
// voltage grid, a fixed refresh-interval ladder (1, 2, 4 and 8 x tREFI),
// and the ECC escalation ladder of the configured base code, and picks the
// minimum-energy triple whose combined raw bit-error rate (voltage BER
// composed with the refresh ladder's retention-failure probability) stays
// within what the candidate code can absorb at the layer's learned
// tolerance BER_th — the same accuracy floor analyze_layer_tolerance
// derived the threshold under (baseline accuracy - accuracy_bound), so
// "meets the floor" is exactly "post-correction residual BER <= BER_th".
//
// Candidate energy is one core::weight_stream_energy call: the layer's
// stored weights stream through a controller running the candidate cadence,
// with the code's decode time and energy added. The refresh charge is then
// the power model's per-layer term — the run's REF commands scaled by the
// fraction of module rows the layer occupies, not a module-wide REF bill.
// The search is deterministic and consumes no Rng: candidates are
// evaluated with parallel_for into a preallocated table and the winner is
// chosen by a value-based total order (energy, then higher voltage, then
// lower multiplier, then weaker code), so the result is invariant to thread
// count AND to candidate-enumeration order.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dram/geometry.hpp"
#include "error/ecc_scheme.hpp"
#include "error/error_model.hpp"
#include "error/subarray_profile.hpp"

namespace sparkxd::core {

/// Knob-search configuration (part of PipelineConfig): whether
/// run_pipeline runs the search at all.
struct LayerKnobsConfig {
  bool enabled = false;
};

/// The chosen (voltage, refresh, ECC) triple of one layer, plus the
/// evaluation that justified it.
struct LayerKnobChoice {
  double v_supply = 0.0;
  double module_ber = 0.0;          ///< voltage-axis BER at v_supply
  double refresh_multiplier = 1.0;  ///< tREFI multiplier of the layer's rows
  error::EccSpec ecc;               ///< assigned code (may be the base spec)
  std::string ecc_scheme;           ///< scheme name, e.g. "secded(72,64)"
  double raw_ber = 0.0;        ///< voltage BER composed with retention p_fail
  double tolerable_ber = 0.0;  ///< raw BER the code absorbs at this BER_th
  double energy_nj = 0.0;      ///< one weight-stream pass at this triple
  bool meets_floor = false;    ///< raw_ber <= tolerable_ber under a met BER_th
  std::size_t retention_weak_cells = 0;  ///< weak cells at this cadence
};

/// Full search result: per-layer choices plus the best *uniform* triple
/// (one (v, m, ecc) shared by every layer) as the baseline the per-layer
/// assignment must beat — by construction sum(layers) <= uniform when the
/// uniform point exists, since each layer minimizes over a superset.
struct LayerKnobsReport {
  std::vector<LayerKnobChoice> layers;
  double total_energy_nj = 0.0;  ///< sum of the per-layer choices
  /// Minimum-total-energy single triple feasible for ALL layers; fields are
  /// zero / meets_floor=false when no such triple exists.
  LayerKnobChoice uniform;
  double uniform_energy_nj = 0.0;  ///< all layers streamed at `uniform`
  bool uniform_feasible = false;
};

/// Everything the search needs from the pipeline (no Rng: the search is a
/// pure function of these inputs).
struct LayerKnobsInputs {
  dram::Geometry geometry;
  const error::SubarrayProfile* profile = nullptr;
  error::ErrorModelSpec error_model;  ///< retention spec template
  std::vector<double> voltages;       ///< candidate supply voltages
  error::EccSpec ecc;                 ///< base code; ladder derived from it
  std::vector<double> layer_ber_th;   ///< per-layer tolerance (0 = not met)
  std::vector<bool> layer_met_target;
  std::vector<std::size_t> layer_weights;  ///< payload FP32 words per layer
  bool salp = false;
  std::uint64_t seed = 0;
};

/// Runs the search. Deterministic in its inputs; thread- and
/// enumeration-order-invariant (see file header).
[[nodiscard]] LayerKnobsReport assign_layer_knobs(const LayerKnobsConfig& cfg,
                                                  const LayerKnobsInputs& in);

}  // namespace sparkxd::core
