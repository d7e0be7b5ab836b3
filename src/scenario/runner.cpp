#include "scenario/runner.hpp"

#include <array>
#include <charconv>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "data/dataset.hpp"
#include "error/ecc_scheme.hpp"
#include "error/error_model.hpp"

namespace sparkxd::scenario {

namespace {

/// Fixed/scientific formatting via std::to_chars — like snprintf %.*f/%.*e
/// but immune to LC_NUMERIC, matching the locale-independence guarantee of
/// the JSON path (a comma decimal point would silently break every golden
/// digest comparison).
std::string fmt(std::chars_format format, int precision, double v) {
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                 format, precision);
  SPARKXD_ENSURE(res.ec == std::errc{}, "double did not fit the buffer");
  return std::string(buf.data(), res.ptr);
}

std::string fixed(int precision, double v) {
  return fmt(std::chars_format::fixed, precision, v);
}

std::string sci(int precision, double v) {
  return fmt(std::chars_format::scientific, precision, v);
}

void write_config(json::Writer& w, const Scenario& s) {
  w.key("config").begin_object();
  w.field("task", data::to_string(s.task));
  w.field("neurons", s.network.n_neurons);
  w.key("hidden_layers").begin_array();
  for (const std::size_t h : s.network.hidden_neurons)
    w.value(static_cast<std::uint64_t>(h));
  w.end_array();
  w.field("train_samples", s.train_samples);
  w.field("test_samples", s.test_samples);
  w.field("baseline_epochs", s.baseline_epochs);
  w.key("ber_stages").begin_array();
  for (const double b : s.fault_training.ber_stages) w.value(b);
  w.end_array();
  w.field("eval_trials", s.fault_training.eval_trials);
  w.key("geometry").begin_object();
  w.field("banks_per_chip", s.geometry.banks_per_chip);
  w.field("subarrays_per_bank", s.geometry.subarrays_per_bank);
  w.field("rows_per_subarray", s.geometry.rows_per_subarray);
  w.field("columns_per_row", s.geometry.columns_per_row);
  w.field("salp", s.salp);
  w.end_object();
  w.field("error_model", error::to_string(s.error_model.kind));
  w.key("refresh").begin_object();
  w.field("mode", dram::to_string(s.refresh.mode));
  w.field("interval_multiplier", s.refresh.effective_multiplier());
  w.end_object();
  w.key("ecc").begin_object();
  w.field("scheme", error::to_string(s.ecc.kind));
  w.field("data_bits", static_cast<std::uint64_t>(s.ecc.data_bits));
  w.end_object();
  w.key("voltages").begin_array();
  for (const double v : s.voltages) w.value(v);
  w.end_array();
  w.field("seed", s.seed);
  // Emitted only for non-default engines so every float-mode report keeps
  // its byte layout.
  if (s.network.engine != snn::EngineKind::kEvent)
    w.field("engine", snn::to_string(s.network.engine));
  // Same gating for the knob search: absent unless the scenario runs it.
  if (s.layer_knobs.enabled) w.field("layer_knobs", true);
  w.end_object();
}

/// One chosen (voltage, refresh, ECC) triple as a JSON object.
void write_knob_choice(json::Writer& w, const core::LayerKnobChoice& c) {
  w.begin_object();
  w.field("v_supply", c.v_supply);
  w.field("module_ber", c.module_ber);
  w.field("refresh_multiplier", c.refresh_multiplier);
  w.field("ecc_scheme", c.ecc_scheme);
  w.field("raw_ber", c.raw_ber);
  w.field("tolerable_ber", c.tolerable_ber);
  w.field("energy_nj", c.energy_nj);
  w.field("meets_floor", c.meets_floor);
  w.field("retention_weak_cells", c.retention_weak_cells);
  w.end_object();
}

void write_report(json::Writer& w, const Scenario& s,
                  const core::PipelineReport& r) {
  // Per-layer report blocks are emitted only for deep stacks, and ECC
  // blocks only for ecc-enabled scenarios, so every pre-existing report
  // (and its byte layout) is unchanged.
  const bool deep = !s.network.hidden_neurons.empty();
  const bool ecc_on = s.ecc.enabled();
  w.key("report").begin_object();
  w.field("baseline_accuracy", r.baseline_accuracy);
  w.field("improved_accuracy", r.improved_accuracy);
  w.field("ber_th", r.ber_th);
  w.field("met_target", r.met_target);
  if (deep) {
    // The per-layer tolerance vector (input side first): BER_th, whether
    // the bound was met, and the per-layer accuracy-vs-BER curve.
    w.key("layer_tolerance").begin_array();
    for (std::size_t l = 0; l < r.layer_ber_th.size(); ++l) {
      w.begin_object();
      w.field("layer", static_cast<std::uint64_t>(l));
      w.field("ber_th", r.layer_ber_th[l]);
      w.field("met_target", static_cast<bool>(r.layer_met_target[l]));
      w.key("curve").begin_array();
      if (l < r.layer_curves.size()) {
        for (const auto& p : r.layer_curves[l]) {
          w.begin_object();
          w.field("ber", p.ber);
          w.field("accuracy", p.accuracy);
          w.end_object();
        }
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.field("baseline_energy_nj", r.baseline_energy_nj);
  w.field("baseline_time_ns", r.baseline_time_ns);
  w.key("stage_curve").begin_array();
  for (const auto& p : r.stage_curve) {
    w.begin_object();
    w.field("ber", p.ber);
    w.field("accuracy", p.accuracy);
    w.end_object();
  }
  w.end_array();
  w.key("per_voltage").begin_array();
  for (const auto& v : r.per_voltage) {
    w.begin_object();
    w.field("v_supply", v.v_supply);
    w.field("module_ber", v.module_ber);
    w.field("accuracy", v.accuracy);
    w.field("energy_nj", v.energy_nj);
    w.field("saving_pct", v.saving_pct);
    w.field("speedup", v.speedup);
    w.field("row_hit_rate", v.row_hit_rate);
    w.field("safe_subarrays", v.safe_subarrays);
    w.field("capacity_relaxed", v.capacity_relaxed);
    w.field("refreshes", v.refreshes);
    w.field("retention_weak_cells", v.retention_weak_cells);
    if (ecc_on) {
      w.field("ecc_codewords", v.ecc_codewords);
      w.field("ecc_corrected", v.ecc_corrected);
      w.field("ecc_detected", v.ecc_detected);
      // Per-layer scheme assignment + scrub accounting at this voltage.
      w.key("ecc_layers").begin_array();
      for (const auto& ls : v.layers) {
        w.begin_object();
        w.field("scheme", ls.ecc_scheme);
        w.field("escalated", ls.ecc_escalated);
        w.field("storage_overhead", ls.ecc_overhead);
        w.field("codewords", ls.ecc_codewords);
        w.field("corrected", ls.ecc_corrected);
        w.field("detected", ls.ecc_detected);
        w.field("decode_energy_nj", ls.ecc_energy_nj);
        w.end_object();
      }
      w.end_array();
    }
    if (deep) {
      // Per-layer placement + accounting at this voltage.
      w.key("layers").begin_array();
      for (const auto& ls : v.layers) {
        w.begin_object();
        w.field("ber_th", ls.ber_th);
        w.field("capacity_relaxed", ls.capacity_relaxed);
        w.field("chunks", ls.chunks);
        w.field("safe_subarrays", ls.safe_subarrays);
        w.field("energy_nj", ls.energy_nj);
        w.field("row_hit_rate", ls.row_hit_rate);
        w.field("refreshes", ls.refreshes);
        w.field("retention_weak_cells", ls.retention_weak_cells);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  // Per-layer operating points (knob-search scenarios only, so every
  // knob-free report keeps its byte layout).
  if (s.layer_knobs.enabled && r.layer_knobs.has_value()) {
    const core::LayerKnobsReport& k = *r.layer_knobs;
    w.key("layer_knobs").begin_object();
    w.key("layers").begin_array();
    for (const auto& c : k.layers) write_knob_choice(w, c);
    w.end_array();
    w.field("total_energy_nj", k.total_energy_nj);
    w.field("uniform_feasible", k.uniform_feasible);
    if (k.uniform_feasible) {
      w.key("uniform");
      write_knob_choice(w, k.uniform);
      w.field("uniform_energy_nj", k.uniform_energy_nj);
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::vector<ScenarioResult> run_scenarios(
    const std::vector<Scenario>& scenarios) {
  for (const auto& s : scenarios) s.validate();
  std::vector<ScenarioResult> results(scenarios.size());
  parallel_for(scenarios.size(), [&](std::size_t i) {
    results[i].scenario = scenarios[i];
    results[i].report = core::run_pipeline(scenarios[i].pipeline_config());
  });
  return results;
}

std::string to_json(const std::vector<ScenarioResult>& results) {
  json::Writer w;
  w.begin_object();
  w.field("schema", "sparkxd-report-v1");
  w.key("scenarios").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.field("name", r.scenario.name);
    w.field("description", r.scenario.description);
    write_config(w, r.scenario);
    write_report(w, r.scenario, r.report);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  SPARKXD_ENSURE(w.complete(), "report serialization left JSON unbalanced");
  return w.str() + "\n";
}

std::string digest(const ScenarioResult& result) {
  const auto& r = result.report;
  // Refresh-axis fields are emitted only for scenarios that simulate
  // refresh, per-layer fields only for deep stacks, and ECC fields only
  // for ecc-enabled scenarios, so every pre-existing digest stays
  // byte-identical.
  const Scenario& s = result.scenario;
  const bool refresh_on = s.refresh.simulated();
  const bool deep = !s.network.hidden_neurons.empty();
  const bool ecc_on = s.ecc.enabled();
  // The engine header line follows the same gating: absent for the default
  // float mode, so its digests stay byte-identical.
  const bool engine_on = s.network.engine != snn::EngineKind::kEvent;
  // Knob-search lines (K<n>) only for scenarios that ran the search.
  const bool knobs_on = s.layer_knobs.enabled && r.layer_knobs.has_value();
  std::string d;
  d += "scenario=" + s.name + "\n";
  if (engine_on)
    d += std::string("engine=") + snn::to_string(s.network.engine) + "\n";
  if (refresh_on) d += "refresh=" + refresh_label(s.refresh) + "\n";
  if (ecc_on) d += "ecc=" + error::ecc_label(s.ecc) + "\n";
  if (deep) {
    d += "layers=" + std::to_string(s.network.n_layers());
    d += "\n";
  }
  d += "baseline_accuracy=" + fixed(6, r.baseline_accuracy) + "\n";
  d += "improved_accuracy=" + fixed(6, r.improved_accuracy) + "\n";
  d += "ber_th=" + sci(3, r.ber_th) + "\n";
  d += std::string("met_target=") + (r.met_target ? "1" : "0") + "\n";
  if (deep) {
    // One line per layer: the per-layer tolerance analysis headline.
    for (std::size_t l = 0; l < r.layer_ber_th.size(); ++l) {
      d += "layer" + std::to_string(l);
      d += " ber_th=" + sci(3, r.layer_ber_th[l]);
      d += std::string(" met=") + (r.layer_met_target[l] ? "1" : "0") + "\n";
    }
  }
  d += "baseline_energy_nj=" + sci(6, r.baseline_energy_nj) + "\n";
  d += "baseline_time_ns=" + sci(6, r.baseline_time_ns) + "\n";
  for (const auto& v : r.per_voltage) {
    d += "v=" + fixed(3, v.v_supply);
    d += " ber=" + sci(3, v.module_ber);
    d += " acc=" + fixed(6, v.accuracy);
    d += " energy_nj=" + sci(6, v.energy_nj);
    d += " saving_pct=" + fixed(4, v.saving_pct);
    d += " speedup=" + fixed(4, v.speedup);
    d += " hit_rate=" + fixed(6, v.row_hit_rate);
    d += " safe=" + std::to_string(v.safe_subarrays);
    d += std::string(" relaxed=") + (v.capacity_relaxed ? "1" : "0");
    if (refresh_on) {
      d += " ref=" + std::to_string(v.refreshes);
      d += " retweak=" + std::to_string(v.retention_weak_cells);
    }
    if (ecc_on) {
      d += " ecccw=" + std::to_string(v.ecc_codewords);
      d += " ecccorr=" + std::to_string(v.ecc_corrected);
      d += " eccdet=" + std::to_string(v.ecc_detected);
    }
    d += "\n";
    if (deep) {
      // Per-layer placement + accounting under the voltage line it
      // belongs to.
      for (std::size_t l = 0; l < v.layers.size(); ++l) {
        const auto& ls = v.layers[l];
        d += "  L" + std::to_string(l);
        d += " ber_th=" + sci(3, ls.ber_th);
        d += std::string(" relaxed=") + (ls.capacity_relaxed ? "1" : "0");
        d += " chunks=" + std::to_string(ls.chunks);
        d += " safe=" + std::to_string(ls.safe_subarrays);
        d += " energy_nj=" + sci(6, ls.energy_nj);
        d += " hit_rate=" + fixed(6, ls.row_hit_rate);
        if (refresh_on) {
          d += " ref=" + std::to_string(ls.refreshes);
          d += " retweak=" + std::to_string(ls.retention_weak_cells);
        }
        d += "\n";
      }
    }
    if (ecc_on) {
      // Per-layer scheme assignment + scrub accounting under the voltage
      // line it belongs to (emitted for flat nets too: the ECC axis makes
      // layer 0's escalation decision part of the locked contract).
      for (std::size_t l = 0; l < v.layers.size(); ++l) {
        const auto& ls = v.layers[l];
        d += "  E" + std::to_string(l);
        d += " scheme=" + ls.ecc_scheme;
        d += std::string(" esc=") + (ls.ecc_escalated ? "1" : "0");
        d += " cw=" + std::to_string(ls.ecc_codewords);
        d += " corr=" + std::to_string(ls.ecc_corrected);
        d += " det=" + std::to_string(ls.ecc_detected);
        d += " decode_nj=" + sci(6, ls.ecc_energy_nj);
        d += "\n";
      }
    }
  }
  if (knobs_on) {
    // Per-layer operating points: one K<n> line per layer with the chosen
    // (voltage, refresh multiplier, ECC) triple and the evaluation that
    // justified it, then the uniform baseline and the energy split.
    const core::LayerKnobsReport& k = *r.layer_knobs;
    for (std::size_t l = 0; l < k.layers.size(); ++l) {
      const auto& c = k.layers[l];
      d += "K" + std::to_string(l);
      d += " v=" + fixed(3, c.v_supply);
      d += " m=" + fixed(1, c.refresh_multiplier);
      d += " ecc=" + c.ecc_scheme;
      d += " raw=" + sci(3, c.raw_ber);
      d += " tol=" + sci(3, c.tolerable_ber);
      d += " energy_nj=" + sci(6, c.energy_nj);
      d += std::string(" floor=") + (c.meets_floor ? "1" : "0");
      d += " retweak=" + std::to_string(c.retention_weak_cells);
      d += "\n";
    }
    if (k.uniform_feasible) {
      d += "Kuniform v=" + fixed(3, k.uniform.v_supply);
      d += " m=" + fixed(1, k.uniform.refresh_multiplier);
      d += " ecc=" + k.uniform.ecc_scheme;
      d += " energy_nj=" + sci(6, k.uniform_energy_nj);
      d += "\n";
    }
    d += "Ktotal energy_nj=" + sci(6, k.total_energy_nj);
    d += std::string(" uniform_feasible=") + (k.uniform_feasible ? "1" : "0");
    if (k.uniform_feasible && k.uniform_energy_nj > 0.0)
      d += " save_pct=" +
           fixed(4, 100.0 * (1.0 - k.total_energy_nj / k.uniform_energy_nj));
    d += "\n";
  }
  return d;
}

}  // namespace sparkxd::scenario
