#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "data/dataset.hpp"
#include "dram/controller.hpp"
#include "snn/network.hpp"
#include "snn/trainer.hpp"

namespace sparkxd::core {

void PipelineConfig::validate() const {
  // Bounds far above any workload: a count past them is a wrapped or
  // mistyped value, and would size the dataset or run the training and
  // Monte-Carlo loops ~forever.
  constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
  constexpr std::size_t kMaxPasses = std::size_t{1} << 16;
  for (const std::size_t n : {train_samples, test_samples})
    SPARKXD_REQUIRE(n > 0 && n <= kMaxSamples,
                    "training and test samples must lie in [1, 2^20]");
  SPARKXD_REQUIRE(baseline_epochs <= kMaxPasses,
                  "baseline epochs must be at most 2^16");
  const std::size_t trials = fault_training.eval_trials;
  SPARKXD_REQUIRE(trials > 0 && trials <= kMaxPasses,
                  "Monte-Carlo evaluation trials must lie in [1, 2^16]");
  snn::require_valid(network);
  SPARKXD_REQUIRE(network.n_inputs == data::kImageSide * data::kImageSide,
                  "network inputs must equal the dataset's pixel count");
  SPARKXD_REQUIRE(!fault_training.ber_stages.empty(),
                  "fault-training schedule needs at least one BER stage");
  for (std::size_t i = 0; i < fault_training.ber_stages.size(); ++i) {
    const double b = fault_training.ber_stages[i];
    SPARKXD_REQUIRE(std::isfinite(b) && b > 0.0 && b < 1.0,
                    "BER stages must lie in (0, 1)");
    SPARKXD_REQUIRE(i == 0 || fault_training.ber_stages[i - 1] < b,
                    "BER stages must be strictly ascending");
  }
  SPARKXD_REQUIRE(!voltages.empty(),
                  "voltage grid is empty — need at least one supply voltage");
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    SPARKXD_REQUIRE(std::isfinite(voltages[i]) && voltages[i] > 0.0,
                    "supply voltages must be positive and finite");
    SPARKXD_REQUIRE(i == 0 || voltages[i - 1] > voltages[i],
                    "voltage grid must be strictly descending "
                    "(paper order, 1.325 V down to 1.025 V)");
  }
  geometry.validate();
  (void)mapping::weights_per_chunk(geometry);  // whole FP32 weights per burst
  refresh.validate(dram::TimingParams::lpddr3_1600());
  error_model.retention.validate();
  ecc.validate();
}

TraceEnergy weight_stream_energy(const dram::Geometry& geometry,
                                 const error::ChunkPlacement& placement,
                                 std::size_t n_weights, double v_supply,
                                 const energy::VoltageModel& vm,
                                 const energy::PowerModel& pm, bool salp,
                                 const dram::RefreshPolicy& refresh,
                                 const EccStreamOverhead* ecc) {
  const auto timing = vm.derive_timings(v_supply);
  dram::Controller controller(geometry, timing, salp, refresh);
  const auto trace =
      mapping::streaming_read_trace(geometry, placement, n_weights);
  TraceEnergy te;
  te.stats = controller.run(trace, kBurstArrivalNs);
  if (ecc != nullptr && ecc->codewords > 0) {
    // The scrub engine decodes every fetched codeword; the added time
    // extends the makespan BEFORE energy conversion so background (and the
    // estimated-refresh term) accrue over it, and the reported speedup vs
    // the accurate baseline reflects the decode latency.
    te.stats.total_time_ns += static_cast<double>(ecc->codewords) *
                              ecc->decode_ns_per_codeword;
  }
  te.energy = pm.trace_energy(te.stats, v_supply, refresh);
  if (ecc != nullptr)
    te.energy.ecc_nj = static_cast<double>(ecc->codewords) *
                       ecc->decode_nj_per_codeword;
  return te;
}

PipelineReport run_pipeline(const PipelineConfig& cfg) {
  return run_pipeline(cfg, nullptr);
}

PipelineReport run_pipeline(const PipelineConfig& cfg,
                            ArtifactState* artifact) {
  cfg.validate();
  const std::size_t capture_vi =
      artifact == nullptr ? ArtifactState::npos
      : artifact->voltage_index == ArtifactState::npos
          ? cfg.voltages.size() - 1
          : artifact->voltage_index;
  if (artifact != nullptr) {
    SPARKXD_REQUIRE(capture_vi < cfg.voltages.size(),
                    "artifact voltage index is outside the voltage grid");
    // A serving artifact carries no check words and the server injects
    // with the range clip only, so an ECC operating point cannot be served
    // as the report measured it.
    SPARKXD_REQUIRE(!cfg.ecc.enabled(),
                    "an ECC-protected scenario cannot be exported as a "
                    "serving artifact");
  }
  Rng rng(cfg.seed);
  PipelineReport report;
  // Phase wall clocks (informational; see PhaseTimings).
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto since = [](std::chrono::steady_clock::time_point t0,
                        std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  const auto t_start = now();

  // --- Data + baseline model (accurate DRAM). -----------------------------
  // The full set is only split: it dies here, not at the end of the run.
  const auto [train, test] = [&] {
    const auto all = data::make_dataset(
        cfg.task, cfg.train_samples + cfg.test_samples, cfg.seed);
    return std::pair{all.take(cfg.train_samples),
                     all.drop(cfg.train_samples)};
  }();

  auto baseline = snn::train_and_label(cfg.network, train, test,
                                       cfg.baseline_epochs, rng);
  report.baseline_accuracy = baseline.clean_accuracy;
  const auto t_trained = now();
  report.timings.train_ns = since(t_start, t_trained);

  // --- Substrate models. ---------------------------------------------------
  const energy::VoltageModel voltage_model;
  const energy::BerModel ber_model;
  const energy::PowerModel power_model;
  const error::SubarrayProfile profile(cfg.geometry, cfg.seed,
                                       cfg.subarray_sigma);
  const std::size_t n_layers = cfg.network.n_layers();
  std::vector<std::size_t> layer_weights(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    layer_weights[l] = cfg.network.layer_weight_count(l);

  // Training-time injectors: the paper trains against the *baseline* mapping
  // (weights in subsequent addresses of a bank, §IV-B Step-2); each layer
  // occupies its own slice of that walk. All layers share the module's one
  // weak-cell reality (same seed — weakness is hashed per physical cell, and
  // the per-layer regions are disjoint addresses of the same device).
  const auto base_places =
      mapping::baseline_placement_layers(cfg.geometry, layer_weights);
  const double max_stage_ber = cfg.fault_training.ber_stages.back();
  // One weak-cell map serves every injector of the run: a cell's score
  // does not depend on the BER, so each distinct chunk is enumerated once,
  // at the largest BER any injector below asks for.
  double map_ber = max_stage_ber;
  for (const double v : cfg.voltages)
    map_ber = std::max(map_ber, std::max(ber_model.ber(v), 1e-12));
  std::optional<error::WeakCellMap> weak_cells;
  weak_cells.emplace(cfg.geometry, profile, cfg.error_model, cfg.seed,
                     map_ber);
  for (const auto& chunks : base_places) weak_cells->add(chunks);
  std::vector<error::ErrorInjector> train_injectors;
  train_injectors.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    train_injectors.emplace_back(*weak_cells, base_places[l],
                                 layer_weights[l] * sizeof(float),
                                 max_stage_ber);
  LayerInjectors train_injector_ptrs;
  for (const auto& inj : train_injectors) train_injector_ptrs.push_back(&inj);

  // --- Algorithm 1: fault-aware training + BER_th. -------------------------
  auto fa = improve_error_tolerance(baseline, cfg.fault_training,
                                    train_injector_ptrs, train, test, rng);
  report.ber_th = fa.ber_th;
  report.met_target = fa.met_target;
  report.stage_curve = std::move(fa.stage_curve);
  report.improved_accuracy =
      snn::evaluate(fa.improved.net, fa.improved.labels, test, rng);
  if (artifact != nullptr) {
    // Copy the deployed model out now (the sweep below shares it
    // read-only); its clean_accuracy becomes the error-free test accuracy.
    artifact->model = fa.improved;
    artifact->model->clean_accuracy = report.improved_accuracy;
    artifact->weight_clip = cfg.fault_training.weight_clip;
  }

  // --- Per-layer tolerance analysis (§IV-C, per layer). --------------------
  // A single-layer stack's per-layer vector IS the global result — no extra
  // analysis runs (and no Rng is consumed), keeping legacy runs
  // bit-identical. Deep stacks re-run the analysis once per layer with only
  // that layer corrupted; the resulting BER_th vector drives the per-layer
  // mapping thresholds in the sweep below.
  report.layer_ber_th.assign(n_layers, fa.met_target ? fa.ber_th : 0.0);
  report.layer_met_target.assign(n_layers, fa.met_target);
  if (n_layers > 1) {
    const double target =
        baseline.clean_accuracy - cfg.fault_training.accuracy_bound;
    const auto per_layer = analyze_layer_tolerance(
        fa.improved.net, fa.improved.labels, train_injector_ptrs,
        cfg.fault_training.ber_stages, target, test, rng,
        cfg.fault_training.eval_trials, cfg.fault_training.weight_clip);
    report.layer_curves.resize(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
      report.layer_ber_th[l] =
          per_layer[l].met_target ? per_layer[l].ber_th : 0.0;
      report.layer_met_target[l] = per_layer[l].met_target;
      report.layer_curves[l] = per_layer[l].curve;
    }
  }
  const auto t_fault_trained = now();
  report.timings.fault_training_ns = since(t_trained, t_fault_trained);

  // --- ECC axis (third approximation knob). --------------------------------
  // The escalation ladder starts at the configured scheme and appends
  // strictly stronger codes; per-(ladder step, layer) check words are
  // computed ONCE from the improved model's clean weights and shared
  // read-only across the voltage sweep (the clean weights never change
  // after Algorithm 1).
  const bool ecc_on = cfg.ecc.enabled();
  std::vector<std::unique_ptr<error::EccScheme>> ecc_ladder;
  std::vector<std::vector<std::vector<std::uint64_t>>> ecc_checks;
  if (ecc_on) {
    for (const error::EccSpec& spec : error::ecc_escalation_ladder(cfg.ecc))
      ecc_ladder.push_back(error::make_ecc_scheme(spec));
    ecc_checks.resize(ecc_ladder.size());
    for (std::size_t k = 0; k < ecc_ladder.size(); ++k) {
      ecc_checks[k].resize(n_layers);
      for (std::size_t l = 0; l < n_layers; ++l)
        ecc_checks[k][l] =
            error::ecc_encode_buffer(*ecc_ladder[k], fa.improved.net.weights(l));
    }
  }

  // --- Baseline energy reference: accurate DRAM @ 1.35 V, baseline map. ----
  // When the refresh axis is simulated, the reference runs at the NOMINAL
  // cadence (accurate DRAM refreshes on spec), so reduced-refresh scenarios
  // report the refresh-energy win; otherwise the legacy estimate applies.
  const dram::RefreshPolicy baseline_refresh =
      cfg.refresh.simulated() ? dram::RefreshPolicy::nominal()
                              : dram::RefreshPolicy::disabled();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto base_te = weight_stream_energy(
        cfg.geometry, base_places[l], layer_weights[l], energy::kNominalVdd,
        voltage_model, power_model, /*salp=*/false, baseline_refresh);
    report.baseline_energy_nj += base_te.energy.total_nj();
    report.baseline_time_ns += base_te.stats.total_time_ns;
  }

  // --- Per-voltage plans: ECC rungs + Algorithm 2 mapping. -----------------
  // Pure functions of the learned thresholds (no Rng), computed up front so
  // every placement joins the weak-cell map before the sweep reads it.
  struct VoltagePlan {
    double module_ber = 0.0;
    std::vector<std::size_t> scheme_idx;
    std::vector<std::size_t> stored_weights;
    std::vector<mapping::LayerPlacement> placement;
  };
  std::vector<VoltagePlan> plans(cfg.voltages.size());
  parallel_for(cfg.voltages.size(), [&](std::size_t vi) {
    VoltagePlan& plan = plans[vi];
    plan.module_ber = ber_model.ber(cfg.voltages[vi]);
    // Per-layer ECC scheme assignment: walk the escalation ladder to the
    // weakest code whose tolerable raw BER (at this layer's learned
    // post-correction tolerance) covers the operating BER — a layer whose
    // BER_th is not met at this voltage escalates its code BEFORE the
    // placement has to relax capacity. The code's absorption also raises
    // the layer's effective placement threshold, and the check bits join
    // the layer's stored footprint (placement + streamed traffic).
    plan.scheme_idx.assign(n_layers, 0);
    std::vector<double> place_th = report.layer_ber_th;
    plan.stored_weights = layer_weights;
    if (ecc_on) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        std::size_t k = 0;
        while (k + 1 < ecc_ladder.size() &&
               ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]) <
                   plan.module_ber)
          ++k;
        plan.scheme_idx[l] = k;
        place_th[l] = std::max(
            report.layer_ber_th[l],
            ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]));
        plan.stored_weights[l] =
            layer_weights[l] +
            error::ecc_check_float_equiv(*ecc_ladder[k], layer_weights[l]);
      }
    }
    // Algorithm 2 per layer: each layer's weights go into its own region of
    // safe subarrays at ITS tolerance threshold; if a layer's learned
    // BER_th is too strict to fit at this operating BER, the placement
    // relaxes it to the smallest feasible threshold and reports that
    // honestly (LayerPlacement::capacity_relaxed).
    plan.placement = mapping::sparkxd_placement_layers(
        cfg.geometry, profile, plan.module_ber, place_th,
        plan.stored_weights);
  });
  for (const VoltagePlan& plan : plans)
    for (const auto& lp : plan.placement) weak_cells->add(lp.chunks);

  // --- Per-voltage: accuracy + energy. --------------------------------------
  // Voltages are independent given the trained model, so the sweep runs
  // concurrently: each voltage forks its own Rng stream from the sweep index
  // and fills its own report slot, keeping the report bit-identical at every
  // SPARKXD_THREADS setting.
  report.per_voltage.resize(cfg.voltages.size());
  const Rng sweep_rng = rng;
  parallel_for(cfg.voltages.size(), [&](std::size_t vi) {
    const double v = cfg.voltages[vi];
    const VoltagePlan& plan = plans[vi];
    const auto& scheme_idx = plan.scheme_idx;
    const auto& stored_weights = plan.stored_weights;
    const auto& placement = plan.placement;
    Rng vrng = sweep_rng.fork(vi);
    VoltageReport row;
    row.v_supply = v;
    row.module_ber = plan.module_ber;
    for (const auto& lp : placement) {
      row.capacity_relaxed |= lp.capacity_relaxed;
      row.safe_subarrays = std::max(row.safe_subarrays, lp.safe_subarrays);
    }

    // Accuracy of the improved model with errors drawn through each layer's
    // Algorithm-2 placement at this voltage's module BER.
    std::vector<error::ErrorInjector> eval_injectors;
    eval_injectors.reserve(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l)
      eval_injectors.emplace_back(*weak_cells, placement[l].chunks,
                                  layer_weights[l] * sizeof(float),
                                  std::max(row.module_ber, 1e-12));
    LayerInjectors eval_ptrs;
    for (const auto& inj : eval_injectors) eval_ptrs.push_back(&inj);
    // With ECC on, the injectors above target the payload words only
    // (check-word corruption is idealized away — the scrub engine's own
    // storage is assumed protected); injection is raw and the scrub
    // corrects or clips per codeword. With ECC off every slot is null and
    // each flip is clipped as it is injected.
    LayerEcc layer_ecc(n_layers);
    if (ecc_on)
      for (std::size_t l = 0; l < n_layers; ++l)
        layer_ecc[l] = {ecc_ladder[scheme_idx[l]].get(),
                        &ecc_checks[scheme_idx[l]][l]};
    std::vector<EccScrubTotals> scrub_totals;
    row.accuracy = evaluate_corrupted_ecc(
        fa.improved.net, fa.improved.labels, eval_ptrs, layer_ecc,
        row.module_ber, test, vrng, cfg.fault_training.eval_trials,
        cfg.fault_training.weight_clip, ecc_on ? &scrub_totals : nullptr);

    // Artifact capture: exactly one sweep worker matches, so the write is
    // race-free; freezing re-reads the injectors' candidate tables and
    // consumes no Rng, leaving the report untouched.
    if (artifact != nullptr && vi == capture_vi) {
      artifact->v_supply = v;
      artifact->module_ber = row.module_ber;
      artifact->frozen.clear();
      for (const auto& inj : eval_injectors)
        artifact->frozen.push_back(inj.freeze(row.module_ber));
    }

    // Energy + throughput of the SparkXD mapping at this voltage: each
    // layer's weight stream is simulated over its own placement and the
    // totals aggregate the layers.
    row.layers.resize(n_layers);
    double total_time_ns = 0.0;
    std::uint64_t hits = 0, accesses = 0;
    for (std::size_t l = 0; l < n_layers; ++l) {
      EccStreamOverhead ecc_oh;
      if (ecc_on) {
        const error::EccScheme& scheme = *ecc_ladder[scheme_idx[l]];
        ecc_oh.codewords = error::ecc_codeword_count(scheme, layer_weights[l]);
        ecc_oh.decode_ns_per_codeword = scheme.decode_latency_ns();
        ecc_oh.decode_nj_per_codeword = scheme.decode_energy_nj();
      }
      const auto te = weight_stream_energy(
          cfg.geometry, placement[l].chunks, stored_weights[l], v,
          voltage_model, power_model, cfg.salp, cfg.refresh,
          ecc_on ? &ecc_oh : nullptr);
      LayerVoltageStats& ls = row.layers[l];
      ls.ber_th = placement[l].ber_th;
      ls.capacity_relaxed = placement[l].capacity_relaxed;
      ls.chunks = placement[l].chunks.size();
      ls.safe_subarrays = placement[l].safe_subarrays;
      ls.energy_nj = te.energy.total_nj();
      ls.row_hit_rate = te.stats.hit_rate();
      ls.refreshes = te.stats.refreshes;
      ls.retention_weak_cells = eval_injectors[l].retention_candidate_count();
      if (ecc_on) {
        const error::EccScheme& scheme = *ecc_ladder[scheme_idx[l]];
        ls.ecc_scheme = scheme.name();
        ls.ecc_escalated = scheme_idx[l] > 0;
        ls.ecc_overhead = scheme.storage_overhead();
        ls.ecc_codewords = scrub_totals[l].codewords;
        ls.ecc_corrected = scrub_totals[l].corrected;
        ls.ecc_detected = scrub_totals[l].detected;
        ls.ecc_energy_nj = te.energy.ecc_nj;
        row.ecc_codewords += ls.ecc_codewords;
        row.ecc_corrected += ls.ecc_corrected;
        row.ecc_detected += ls.ecc_detected;
      }
      row.refreshes += ls.refreshes;
      row.retention_weak_cells += ls.retention_weak_cells;
      row.energy_nj += ls.energy_nj;
      total_time_ns += te.stats.total_time_ns;
      hits += te.stats.hits;
      accesses += te.stats.accesses;
    }
    row.saving_pct =
        100.0 * (1.0 - row.energy_nj / report.baseline_energy_nj);
    row.speedup = total_time_ns > 0.0
                      ? report.baseline_time_ns / total_time_ns
                      : 1.0;
    row.row_hit_rate = accesses ? static_cast<double>(hits) /
                                      static_cast<double>(accesses)
                                : 0.0;
    report.per_voltage[vi] = row;
  });
  weak_cells.reset();

  // --- Per-layer operating-point search (EnforceSNN/EDEN completion). ------
  // A pure function of state the pipeline already computed (per-layer
  // BER_th, the substrate models, the profile); consumes no Rng, so runs
  // with the search off are bit-identical to legacy runs.
  if (cfg.layer_knobs.enabled) {
    LayerKnobsInputs in;
    in.geometry = cfg.geometry;
    in.profile = &profile;
    in.error_model = cfg.error_model;
    in.voltages = cfg.voltages;
    in.ecc = cfg.ecc;
    in.layer_ber_th = report.layer_ber_th;
    in.layer_met_target.assign(report.layer_met_target.begin(),
                               report.layer_met_target.end());
    in.layer_weights = layer_weights;
    in.salp = cfg.salp;
    in.seed = cfg.seed;
    report.layer_knobs = assign_layer_knobs(cfg.layer_knobs, in);
  }
  const auto t_done = now();
  report.timings.sweep_ns = since(t_fault_trained, t_done);
  report.timings.total_ns = since(t_start, t_done);
  return report;
}

}  // namespace sparkxd::core
