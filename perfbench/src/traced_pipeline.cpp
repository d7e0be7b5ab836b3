// Traced recomposition of core::run_pipeline (see pipeline_workload.hpp).
//
// This mirrors src/core/pipeline.cpp call for call. It exists so the
// per-layer leg can time each module's public functions from outside the
// library; first_difference() proves, per scenario, that the recomposed
// program is the one run_pipeline runs. When run_pipeline changes its stage
// order or its Rng use, this file must follow, or the traced leg fails.

#include <algorithm>
#include <bit>
#include <memory>

#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "error/ecc_scheme.hpp"
#include "error/subarray_profile.hpp"
#include "mapping/mapping.hpp"
#include "pipeline_workload.hpp"
#include "scenario/runner.hpp"
#include "snn/encoding.hpp"
#include "snn/trainer.hpp"

namespace perfbench {

using namespace sparkxd;

namespace {

// core::weight_stream_energy, split into its trace build, controller run
// and energy conversion.
core::TraceEnergy stream_energy(Trace& tr, const dram::Geometry& geometry,
                                const error::ChunkPlacement& placement,
                                std::size_t n_weights, double v_supply,
                                const energy::VoltageModel& vm,
                                const energy::PowerModel& pm, bool salp,
                                const dram::RefreshPolicy& refresh,
                                const core::EccStreamOverhead* ecc) {
  const auto trace = tr.stage("dram.trace_build_ms", [&] {
    return mapping::streaming_read_trace(geometry, placement, n_weights);
  });
  core::TraceEnergy te;
  te.stats = tr.stage("dram.controller_run_ms", [&] {
    dram::Controller controller(geometry, vm.derive_timings(v_supply), salp,
                                refresh);
    return controller.run(trace, core::kBurstArrivalNs);
  });
  if (ecc != nullptr && ecc->codewords > 0)
    te.stats.total_time_ns +=
        static_cast<double>(ecc->codewords) * ecc->decode_ns_per_codeword;
  te.energy = tr.stage("energy.trace_energy_ms", [&] {
    return pm.trace_energy(te.stats, v_supply, refresh);
  });
  if (ecc != nullptr)
    te.energy.ecc_nj =
        static_cast<double>(ecc->codewords) * ecc->decode_nj_per_codeword;
  tr.count("dram.accesses", static_cast<double>(te.stats.accesses));
  tr.count("dram.row_hits", static_cast<double>(te.stats.hits));
  tr.count("dram.refreshes", static_cast<double>(te.stats.refreshes));
  return te;
}

error::ErrorInjector build_injector(Trace& tr,
                                    const core::PipelineConfig& cfg,
                                    const error::SubarrayProfile& profile,
                                    const error::ChunkPlacement& placement,
                                    std::size_t n_weights, double max_ber) {
  auto inj = tr.stage("error.injector_build_ms", [&] {
    return error::ErrorInjector::for_weights(cfg.geometry, profile,
                                             cfg.error_model, placement,
                                             n_weights, cfg.seed, max_ber);
  });
  tr.count("error.injector_builds", 1.0);
  tr.count("error.candidates", static_cast<double>(inj.candidate_count()));
  return inj;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

core::PipelineReport traced_run_pipeline(const core::PipelineConfig& cfg,
                                         core::ArtifactState* artifact,
                                         Trace& tr,
                                         snn::TrainedModel* improved) {
  cfg.validate();
  using core::ArtifactState;
  const std::size_t capture_vi =
      artifact == nullptr ? ArtifactState::npos
      : artifact->voltage_index == ArtifactState::npos
          ? cfg.voltages.size() - 1
          : artifact->voltage_index;
  Rng rng(cfg.seed);
  core::PipelineReport report;

  const auto all = tr.stage("data.make_dataset_ms", [&] {
    return data::make_dataset(cfg.task, cfg.train_samples + cfg.test_samples,
                              cfg.seed);
  });
  const auto train = all.take(cfg.train_samples);
  const auto test = all.drop(cfg.train_samples);
  auto baseline = tr.stage("snn.train_and_label_ms", [&] {
    return snn::train_and_label(cfg.network, train, test, cfg.baseline_epochs,
                                rng);
  });
  report.baseline_accuracy = baseline.clean_accuracy;

  const energy::VoltageModel voltage_model;
  const energy::BerModel ber_model;
  const energy::PowerModel power_model;
  const auto profile = tr.stage("error.profile_ms", [&] {
    return error::SubarrayProfile(cfg.geometry, cfg.seed, cfg.subarray_sigma);
  });
  const std::size_t n_layers = cfg.network.n_layers();
  std::vector<std::size_t> layer_weights(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    layer_weights[l] = cfg.network.layer_weight_count(l);

  const auto base_places = tr.stage("mapping.placement_ms", [&] {
    return mapping::baseline_placement_layers(cfg.geometry, layer_weights);
  });
  const double max_stage_ber = cfg.fault_training.ber_stages.back();
  std::vector<error::ErrorInjector> train_injectors;
  train_injectors.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l)
    train_injectors.push_back(build_injector(
        tr, cfg, profile, base_places[l], layer_weights[l], max_stage_ber));
  core::LayerInjectors train_ptrs;
  for (const auto& inj : train_injectors) train_ptrs.push_back(&inj);

  auto fa = tr.stage("core.improve_error_tolerance_ms", [&] {
    return core::improve_error_tolerance(baseline, cfg.fault_training,
                                         train_ptrs, train, test, rng);
  });
  report.ber_th = fa.ber_th;
  report.met_target = fa.met_target;
  report.stage_curve = std::move(fa.stage_curve);
  report.improved_accuracy = tr.stage("snn.evaluate_ms", [&] {
    return snn::evaluate(fa.improved.net, fa.improved.labels, test, rng);
  });
  if (improved != nullptr) *improved = fa.improved;
  if (artifact != nullptr) {
    artifact->model = fa.improved;
    artifact->model->clean_accuracy = report.improved_accuracy;
    artifact->weight_clip = cfg.fault_training.weight_clip;
  }

  report.layer_ber_th.assign(n_layers, fa.met_target ? fa.ber_th : 0.0);
  report.layer_met_target.assign(n_layers, fa.met_target);
  if (n_layers > 1) {
    const double target =
        baseline.clean_accuracy - cfg.fault_training.accuracy_bound;
    const auto per_layer = tr.stage("core.analyze_layer_tolerance_ms", [&] {
      return core::analyze_layer_tolerance(
          fa.improved.net, fa.improved.labels, train_ptrs,
          cfg.fault_training.ber_stages, target, test, rng,
          cfg.fault_training.eval_trials, cfg.fault_training.weight_clip);
    });
    report.layer_curves.resize(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
      report.layer_ber_th[l] =
          per_layer[l].met_target ? per_layer[l].ber_th : 0.0;
      report.layer_met_target[l] = per_layer[l].met_target;
      report.layer_curves[l] = per_layer[l].curve;
    }
  }

  const bool ecc_on = cfg.ecc.enabled();
  std::vector<std::unique_ptr<error::EccScheme>> ecc_ladder;
  std::vector<std::vector<std::vector<std::uint64_t>>> ecc_checks;
  if (ecc_on) {
    tr.stage("error.ecc_encode_ms", [&] {
      for (const error::EccSpec& spec : error::ecc_escalation_ladder(cfg.ecc))
        ecc_ladder.push_back(error::make_ecc_scheme(spec));
      ecc_checks.resize(ecc_ladder.size());
      for (std::size_t k = 0; k < ecc_ladder.size(); ++k) {
        ecc_checks[k].resize(n_layers);
        for (std::size_t l = 0; l < n_layers; ++l)
          ecc_checks[k][l] = error::ecc_encode_buffer(
              *ecc_ladder[k], fa.improved.net.weights(l));
      }
    });
  }

  const dram::RefreshPolicy baseline_refresh =
      cfg.refresh.simulated() ? dram::RefreshPolicy::nominal()
                              : dram::RefreshPolicy::disabled();
  for (std::size_t l = 0; l < n_layers; ++l) {
    const auto base_te = stream_energy(
        tr, cfg.geometry, base_places[l], layer_weights[l],
        energy::kNominalVdd, voltage_model, power_model, /*salp=*/false,
        baseline_refresh, nullptr);
    report.baseline_energy_nj += base_te.energy.total_nj();
    report.baseline_time_ns += base_te.stats.total_time_ns;
  }

  report.per_voltage.resize(cfg.voltages.size());
  const Rng sweep_rng = rng;
  for (std::size_t vi = 0; vi < cfg.voltages.size(); ++vi) {
    const double v = cfg.voltages[vi];
    Rng vrng = sweep_rng.fork(vi);
    core::VoltageReport row;
    row.v_supply = v;
    row.module_ber = ber_model.ber(v);

    std::vector<std::size_t> scheme_idx(n_layers, 0);
    std::vector<double> place_th = report.layer_ber_th;
    std::vector<std::size_t> stored_weights = layer_weights;
    if (ecc_on) {
      for (std::size_t l = 0; l < n_layers; ++l) {
        std::size_t k = 0;
        while (k + 1 < ecc_ladder.size() &&
               ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]) <
                   row.module_ber)
          ++k;
        scheme_idx[l] = k;
        place_th[l] = std::max(
            report.layer_ber_th[l],
            ecc_ladder[k]->tolerable_raw_ber(report.layer_ber_th[l]));
        stored_weights[l] =
            layer_weights[l] +
            error::ecc_check_float_equiv(*ecc_ladder[k], layer_weights[l]);
      }
    }

    const auto placement = tr.stage("mapping.placement_ms", [&] {
      return mapping::sparkxd_placement_layers(
          cfg.geometry, profile, row.module_ber, place_th, stored_weights);
    });
    for (const auto& lp : placement) {
      row.capacity_relaxed |= lp.capacity_relaxed;
      row.safe_subarrays = std::max(row.safe_subarrays, lp.safe_subarrays);
    }

    std::vector<error::ErrorInjector> eval_injectors;
    eval_injectors.reserve(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l)
      eval_injectors.push_back(build_injector(
          tr, cfg, profile, placement[l].chunks, layer_weights[l],
          std::max(row.module_ber, 1e-12)));
    core::LayerInjectors eval_ptrs;
    for (const auto& inj : eval_injectors) eval_ptrs.push_back(&inj);
    std::vector<core::EccScrubTotals> scrub_totals;
    tr.count("core.mc_trials",
             static_cast<double>(cfg.fault_training.eval_trials));
    if (ecc_on) {
      core::LayerEcc layer_ecc(n_layers);
      for (std::size_t l = 0; l < n_layers; ++l)
        layer_ecc[l] = {ecc_ladder[scheme_idx[l]].get(),
                        &ecc_checks[scheme_idx[l]][l]};
      row.accuracy = tr.stage("core.evaluate_corrupted_ms", [&] {
        return core::evaluate_corrupted_ecc(
            fa.improved.net, fa.improved.labels, eval_ptrs, layer_ecc,
            row.module_ber, test, vrng, cfg.fault_training.eval_trials,
            cfg.fault_training.weight_clip, &scrub_totals);
      });
    } else {
      row.accuracy = tr.stage("core.evaluate_corrupted_ms", [&] {
        return core::evaluate_corrupted(
            fa.improved.net, fa.improved.labels, eval_ptrs, row.module_ber,
            test, vrng, cfg.fault_training.eval_trials,
            cfg.fault_training.weight_clip);
      });
    }

    // The freeze evaluate_corrupted performs inside its own call, timed
    // here on its own. At the captured voltage it is also the pipeline's
    // artifact freeze, a top-level stage.
    const bool capture = artifact != nullptr && vi == capture_vi;
    std::vector<error::FrozenInjection> frozen;
    for (const auto& inj : eval_injectors) {
      const auto freeze = [&] { return inj.freeze(row.module_ber); };
      frozen.push_back(capture ? tr.stage("error.freeze_ms", freeze)
                               : tr.probe("error.freeze_ms", freeze));
    }
    if (capture) {
      artifact->v_supply = v;
      artifact->module_ber = row.module_ber;
      artifact->placement = placement;
      artifact->frozen = std::move(frozen);
    }

    row.layers.resize(n_layers);
    double total_time_ns = 0.0;
    std::uint64_t hits = 0, accesses = 0;
    for (std::size_t l = 0; l < n_layers; ++l) {
      core::EccStreamOverhead ecc_oh;
      if (ecc_on) {
        const error::EccScheme& scheme = *ecc_ladder[scheme_idx[l]];
        ecc_oh.codewords = error::ecc_codeword_count(scheme, layer_weights[l]);
        ecc_oh.decode_ns_per_codeword = scheme.decode_latency_ns();
        ecc_oh.decode_nj_per_codeword = scheme.decode_energy_nj();
      }
      const auto te = stream_energy(
          tr, cfg.geometry, placement[l].chunks, stored_weights[l], v,
          voltage_model, power_model, cfg.salp, cfg.refresh,
          ecc_on ? &ecc_oh : nullptr);
      core::LayerVoltageStats& ls = row.layers[l];
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
    row.speedup =
        total_time_ns > 0.0 ? report.baseline_time_ns / total_time_ns : 1.0;
    row.row_hit_rate = accesses ? static_cast<double>(hits) /
                                      static_cast<double>(accesses)
                                : 0.0;
    tr.count("error.ecc_codewords", static_cast<double>(row.ecc_codewords));
    tr.count("error.ecc_corrected", static_cast<double>(row.ecc_corrected));
    tr.count("error.ecc_detected", static_cast<double>(row.ecc_detected));
    report.per_voltage[vi] = row;
  }

  if (cfg.layer_knobs.enabled) {
    core::LayerKnobsInputs in;
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
    report.layer_knobs = tr.stage("core.assign_layer_knobs_ms", [&] {
      return core::assign_layer_knobs(cfg.layer_knobs, in);
    });
  }
  return report;
}

std::string first_difference(const scenario::Scenario& s,
                             const core::PipelineReport& a,
                             const core::PipelineReport& b) {
  if (a.per_voltage.size() != b.per_voltage.size())
    return "per_voltage size";
  for (std::size_t vi = 0; vi < a.per_voltage.size(); ++vi) {
    const auto& x = a.per_voltage[vi];
    const auto& y = b.per_voltage[vi];
    const std::string at = " at voltage " + std::to_string(x.v_supply);
    if (!same_bits(x.accuracy, y.accuracy)) return "accuracy" + at;
    if (!same_bits(x.energy_nj, y.energy_nj)) return "energy_nj" + at;
  }
  if (!same_bits(a.baseline_energy_nj, b.baseline_energy_nj))
    return "baseline_energy_nj";
  if (scenario::digest({s, a}) != scenario::digest({s, b})) return "digest";
  return {};
}

void snn_probes(const snn::Network& net,
                const std::vector<std::vector<float>>& images,
                const std::vector<std::vector<float>>& infer_images,
                std::uint64_t seed, Trace& tr) {
  const auto& cfg = net.config();
  snn::PoissonEncoder encoder(cfg.max_rate);
  Rng rng(hash_combine(seed, 0xe1c0de));
  std::vector<std::uint32_t> spikes;
  double spike_total = 0.0;
  double encode_ms = 0.0;
  timed_ms(encode_ms, [&] {
    for (const auto& image : images) {
      encoder.set_image(image);
      for (std::size_t t = 0; t < cfg.timesteps; ++t) {
        encoder.step(rng, spikes);
        spike_total += static_cast<double>(spikes.size());
      }
    }
  });
  const double steps = static_cast<double>(images.size() * cfg.timesteps);
  tr.count("snn.encode_steps", steps);
  tr.count("snn.encode_ms", encode_ms);
  tr.count("snn.input_spikes", spike_total);

  snn::Network scratch(net);
  scratch.sync_transpose();
  snn::InferenceState state(scratch);
  double infer_ms = 0.0;
  timed_ms(infer_ms, [&] {
    for (const auto& image : infer_images) (void)scratch.infer(state, image, rng);
  });
  tr.count("snn.infer_samples", static_cast<double>(infer_images.size()));
  tr.count("snn.infer_ms", infer_ms);
}

}  // namespace perfbench
