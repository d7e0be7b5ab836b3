#pragma once
// The end-to-end SparkXD pipeline (paper Fig. 7): baseline training ->
// fault-aware training (Algorithm 1) -> tolerance analysis -> error-aware
// DRAM mapping (Algorithm 2) -> DRAM energy / throughput evaluation across
// supply voltages.
//
// This is the top-level API a deployment would use: give it a task and a
// network size, get back the improved model, its maximum tolerable BER, and
// a per-voltage report of accuracy, energy and speed against the accurate-
// DRAM baseline.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_aware.hpp"
#include "core/layer_knobs.hpp"
#include "dram/geometry.hpp"
#include "energy/ber_model.hpp"
#include "energy/power_model.hpp"
#include "energy/voltage_model.hpp"
#include "error/error_model.hpp"
#include "mapping/mapping.hpp"
#include "snn/params.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::core {

/// Full pipeline configuration.
struct PipelineConfig {
  snn::NetworkConfig network;
  data::Task task = data::Task::kDigits;
  std::size_t train_samples = 600;
  std::size_t test_samples = 200;
  std::size_t baseline_epochs = 2;
  FaultTrainingConfig fault_training;
  /// Supply voltages to evaluate (paper: 1.325 .. 1.025 V).
  std::vector<double> voltages = {1.325, 1.250, 1.175, 1.100, 1.025};
  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  /// Per-subarray row buffers (SALP, §IV-D / Putra et al. [14]) for the
  /// SparkXD mapping's evaluation. The accurate-DRAM baseline reference is
  /// always the conventional commodity module (one row buffer per bank).
  bool salp = false;
  /// Refresh axis (EDEN-style reduced refresh). Disabled by default, which
  /// reproduces the refresh-free controller schedule and the legacy
  /// makespan-based refresh-energy estimate bit for bit. When simulated,
  /// the accurate-DRAM baseline reference runs at the NOMINAL cadence, so
  /// reduced-rate savings include the refresh-energy win.
  dram::RefreshPolicy refresh;
  error::ErrorModelSpec error_model;  ///< Model-0 by default (paper §III);
                                      ///< carries the retention spec
  /// ECC axis (third approximation knob). Disabled by default, which keeps
  /// the unprotected path bit for bit. When enabled, each layer's weights
  /// are codeword-protected: injection is raw (no load-time clip before the
  /// decoder), the scrub corrects/flags codewords against check words from
  /// the clean weights, and the check storage + per-codeword decode
  /// latency/energy feed the placement, the controller timeline, and the
  /// energy breakdown. A layer whose BER_th the operating point exceeds
  /// escalates along error::ecc_escalation_ladder instead of immediately
  /// relaxing placement capacity.
  error::EccSpec ecc;
  /// Per-layer operating-point search (EnforceSNN/EDEN completion): when
  /// enabled, run_pipeline additionally assigns each layer its own
  /// (voltage, refresh, ECC) triple via assign_layer_knobs and reports the
  /// result in PipelineReport::layer_knobs. Purely additive — the search
  /// consumes no Rng and runs after the sweep, so every report field of a
  /// knob-free run is bit-identical.
  LayerKnobsConfig layer_knobs;
  std::uint64_t seed = 42;
  /// Lognormal spread of per-subarray error rates.
  static constexpr double subarray_sigma = 0.8;

  /// Validates the configuration before anything is built; throws
  /// ContractViolation with a specific message on the first problem found.
  /// Checks the sample, epoch and trial counts, the network (the checks of
  /// the Network constructors, and one input per dataset pixel), the BER
  /// stage schedule (non-empty, in (0, 1), strictly ascending), the voltage
  /// grid (non-empty, finite, positive, strictly descending — the paper's
  /// 1.325 → 1.025 V presentation order), the DRAM geometry, the refresh
  /// policy, the retention spec and the ECC spec.
  void validate() const;
};

/// Per-layer slice of one voltage row: the placement, occupancy, and DRAM
/// accounting of ONE layer of the stack (its weights live in their own
/// disjoint safe-subarray region with their own BER threshold). The
/// top-level VoltageReport fields aggregate these — energy/refreshes/weak
/// cells by sum, the hit rate over the combined access counts.
struct LayerVoltageStats {
  double ber_th = 0.0;  ///< threshold this layer was placed under (post-relax)
  bool capacity_relaxed = false;  ///< threshold raised to fit this layer
  std::size_t chunks = 0;         ///< burst chunks holding this layer
  std::size_t safe_subarrays = 0; ///< subarrays safe at this layer's BER_th
  double energy_nj = 0.0;         ///< streaming this layer's weights once
  double row_hit_rate = 0.0;
  std::uint64_t refreshes = 0;
  std::size_t retention_weak_cells = 0;
  // ECC axis (meaningful only when PipelineConfig::ecc is enabled; all
  // zero/empty otherwise so non-ecc reports and digests are unchanged).
  std::string ecc_scheme;          ///< assigned scheme name, e.g. "bch(79,64)"
  bool ecc_escalated = false;      ///< stronger than the configured base code
  double ecc_overhead = 0.0;       ///< check bits per data bit
  std::uint64_t ecc_codewords = 0; ///< codewords scrubbed across MC trials
  std::uint64_t ecc_corrected = 0; ///< codewords fully restored
  std::uint64_t ecc_detected = 0;  ///< codewords flagged uncorrectable
  double ecc_energy_nj = 0.0;      ///< decode energy of one weight stream
};

/// Per-voltage evaluation row (one bar group of Fig. 12a / 12b).
struct VoltageReport {
  double v_supply = 0.0;
  double module_ber = 0.0;
  double accuracy = 0.0;       ///< improved SNN + Algorithm 2 mapping
  double energy_nj = 0.0;      ///< DRAM energy of one inference weight fetch
  double saving_pct = 0.0;     ///< vs the accurate-DRAM baseline
  double speedup = 1.0;        ///< baseline time / SparkXD time
  double row_hit_rate = 0.0;
  std::size_t safe_subarrays = 0;
  bool capacity_relaxed = false;  ///< BER_th raised to fit the weights
  std::uint64_t refreshes = 0;    ///< REF commands during the weight stream
  /// Retention-failure weak cells in the mapped payload (0 unless the
  /// refresh policy is simulated with a retention-enabled error model).
  std::size_t retention_weak_cells = 0;
  // ECC scrub aggregates over all layers (zero when the ecc axis is off).
  std::uint64_t ecc_codewords = 0;
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_detected = 0;
  /// One entry per network layer (size n_layers; a single-layer stack has
  /// one entry that mirrors the top-level fields). For deep stacks the
  /// top-level energy_nj/refreshes/retention_weak_cells are the sums over
  /// these, row_hit_rate aggregates the access counts, safe_subarrays is
  /// the most permissive layer's count, and capacity_relaxed is true when
  /// ANY layer's threshold had to be relaxed.
  std::vector<LayerVoltageStats> layers;
};

/// Wall-clock phase timings of one run_pipeline call (nanoseconds).
/// Informational only: host- and load-dependent, so they are EXCLUDED from
/// the stable JSON serialization and the golden digests (which must stay
/// byte-identical across runs); sparkxd_run --timings prints them to stderr.
struct PhaseTimings {
  double train_ns = 0.0;           ///< dataset synthesis + baseline training
  double fault_training_ns = 0.0;  ///< Algorithm 1 (incl. stage evaluations)
  double sweep_ns = 0.0;           ///< baseline energy + per-voltage sweep
  double total_ns = 0.0;
};

/// Full pipeline output.
struct PipelineReport {
  double baseline_accuracy = 0.0;  ///< baseline SNN, accurate DRAM
  double improved_accuracy = 0.0;  ///< improved SNN, error-free weights
  double ber_th = 0.0;
  bool met_target = false;
  std::vector<TolerancePoint> stage_curve;
  /// Per-layer maximum tolerable BER (size = network n_layers, input side
  /// first). For a single-layer stack this is {ber_th} — the global
  /// analysis IS the one layer's analysis, so no extra work (or Rng
  /// consumption) happens. For deep stacks it is the §IV-C analysis run
  /// once per layer with ONLY that layer corrupted (see
  /// analyze_layer_tolerance); 0.0 where the bound was never met.
  std::vector<double> layer_ber_th;
  std::vector<bool> layer_met_target;        ///< per-layer bound met?
  /// Per-layer tolerance curves (deep stacks only; empty for single-layer).
  std::vector<std::vector<TolerancePoint>> layer_curves;
  double baseline_energy_nj = 0.0;  ///< accurate DRAM @1.35 V, baseline map
  double baseline_time_ns = 0.0;
  std::vector<VoltageReport> per_voltage;
  /// Per-layer operating points (engaged when PipelineConfig::layer_knobs
  /// is enabled; nullopt otherwise so legacy reports are untouched).
  std::optional<LayerKnobsReport> layer_knobs;
  PhaseTimings timings;  ///< wall clock; not serialized, not digested
};

/// Runs the whole framework. Deterministic in cfg.seed.
[[nodiscard]] PipelineReport run_pipeline(const PipelineConfig& cfg);

/// Offline half of the artifact/serve split: everything a long-lived server
/// needs to run classification at ONE deployed operating point, captured
/// while the pipeline computes it anyway. The capture is purely additive —
/// it copies state the sweep already built (the improved model and one
/// voltage's frozen injection tables, which carry the effect of that
/// voltage's Algorithm-2 placement) and consumes no Rng, so a run with
/// capture is bit-identical to a run without (the golden digests lock this
/// down).
struct ArtifactState {
  /// Input: index into cfg.voltages of the operating point to capture;
  /// npos (the default) captures the LAST grid entry — the lowest, most
  /// aggressive voltage, the paper's headline operating point.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t voltage_index = npos;

  // Outputs, filled by run_pipeline:
  double v_supply = 0.0;
  double module_ber = 0.0;      ///< operating BER at v_supply
  float weight_clip = 0.0f;     ///< load-time range clip the server applies
  /// The improved (fault-aware) model; clean_accuracy holds the error-free
  /// test accuracy (the report's improved_accuracy).
  std::optional<snn::TrainedModel> model;
  /// Not filled by run_pipeline and read by no loader or server; kept
  /// because perfbench/'s traced pipeline assigns it.
  std::vector<mapping::LayerPlacement> placement;
  /// Per-layer frozen injection tables at module_ber — the exact tables the
  /// sweep's Monte-Carlo evaluation shares across trials, now shareable
  /// across serving workers.
  std::vector<error::FrozenInjection> frozen;
};

/// run_pipeline with an optional artifact capture (nullptr = plain run).
/// Throws ContractViolation when capturing from a config with ECC enabled:
/// an artifact carries no check words.
[[nodiscard]] PipelineReport run_pipeline(const PipelineConfig& cfg,
                                          ArtifactState* artifact);

/// Burst request arrival period seen by the DRAM: the accelerator consumes
/// one 32 B weight burst per MAC-array pass, slightly slower than the bus
/// can stream (tBURST = 5 ns), so short bank-preparation stalls are partially
/// hidden. Both mappings are simulated under the same arrival process.
inline constexpr double kBurstArrivalNs = 5.4;

/// Helper shared with the benches: DRAM stats + energy of streaming all
/// weights of an n_weights model through a placement at a supply voltage.
struct TraceEnergy {
  dram::TraceStats stats;
  energy::EnergyBreakdown energy;
};

/// ECC cost of one layer's weight stream: the scrub engine decodes every
/// fetched codeword, extending the access timeline (background energy
/// accrues over the added decode time, and the speedup vs the accurate
/// baseline reflects it) and drawing decode energy on the fixed logic rail
/// (EnergyBreakdown::ecc_nj). Stream the CHECK bits too by passing the
/// stored (payload + check equivalent) weight count to
/// weight_stream_energy — that is the redundancy-read bandwidth cost.
struct EccStreamOverhead {
  std::size_t codewords = 0;
  double decode_ns_per_codeword = 0.0;
  double decode_nj_per_codeword = 0.0;
};

[[nodiscard]] TraceEnergy weight_stream_energy(
    const dram::Geometry& geometry, const error::ChunkPlacement& placement,
    std::size_t n_weights, double v_supply, bool salp = false,
    const dram::RefreshPolicy& refresh = dram::RefreshPolicy::disabled(),
    const EccStreamOverhead* ecc = nullptr);

}  // namespace sparkxd::core
