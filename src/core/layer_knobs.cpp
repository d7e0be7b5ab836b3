#include "core/layer_knobs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "energy/ber_model.hpp"
#include "energy/power_model.hpp"
#include "error/injector.hpp"
#include "error/retention.hpp"
#include "mapping/mapping.hpp"

namespace sparkxd::core {

namespace {

/// Refresh-interval multipliers the search considers, in units of tREFI
/// (strictly ascending; 1 = datasheet cadence). They span the same decades
/// as the voltage axis (see error::RetentionSpec).
constexpr std::array<double, 4> kRefreshLadder = {1.0, 2.0, 4.0, 8.0};

/// One candidate's evaluation record: written concurrently (one slot per
/// candidate), read sequentially by the selection pass.
struct CandidateEval {
  double energy_nj = 0.0;
  double raw_ber = 0.0;
  double tolerable_ber = 0.0;
  bool feasible = false;
};

/// Retention-failure probability of a module-median cell at multiplier `m`,
/// under the scenario's retention parameters (enabled regardless of the
/// scenario's own refresh mode — the ladder models what each cadence WOULD
/// cost).
double retention_p_fail(const error::ErrorModelSpec& model, double m) {
  error::RetentionSpec spec = model.retention;
  spec.enabled = true;
  spec.interval_multiplier = m;
  return error::retention_fail_probability(spec, 1.0);
}

dram::RefreshPolicy candidate_policy(double m) {
  return m == 1.0 ? dram::RefreshPolicy::nominal()
                  : dram::RefreshPolicy::reduced(m);
}

}  // namespace

LayerKnobsReport assign_layer_knobs(const LayerKnobsConfig& /*cfg*/,
                                    const LayerKnobsInputs& in) {
  SPARKXD_REQUIRE(in.profile != nullptr,
                  "knob search needs a subarray profile");
  SPARKXD_REQUIRE(!in.voltages.empty(), "knob search needs a voltage grid");
  const std::size_t n_layers = in.layer_weights.size();
  SPARKXD_REQUIRE(n_layers > 0, "knob search needs at least one layer");
  SPARKXD_REQUIRE(in.layer_ber_th.size() == n_layers &&
                      in.layer_met_target.size() == n_layers,
                  "per-layer tolerance vectors must match the layer count");

  const energy::BerModel ber_model;
  const energy::PowerModel power_model;

  // --- ECC ladder + per-rung placements. -----------------------------------
  // Check storage depends on the code, so each rung lays the module out with
  // its own stored sizes (the cheap baseline walk — candidate ranking needs
  // a consistent traffic model, not the operating-BER-dependent Algorithm-2
  // assignment). The share of module rows each layer occupies under rung k
  // scales the refresh charge of every (v, m) candidate at that rung.
  const auto ladder_specs = error::ecc_escalation_ladder(in.ecc);
  const std::size_t n_rungs = ladder_specs.size();
  std::vector<std::unique_ptr<error::EccScheme>> schemes;
  schemes.reserve(n_rungs);
  std::vector<std::vector<std::size_t>> stored(n_rungs);
  std::vector<std::vector<error::ChunkPlacement>> places(n_rungs);
  std::vector<std::vector<double>> row_fraction(n_rungs);
  std::vector<std::uint64_t> rows;
  const double total_rows =
      static_cast<double>(in.geometry.total_subarrays()) *
      static_cast<double>(in.geometry.rows_per_subarray);
  for (std::size_t k = 0; k < n_rungs; ++k) {
    schemes.push_back(error::make_ecc_scheme(ladder_specs[k]));
    stored[k].resize(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l)
      stored[k][l] = in.layer_weights[l] +
                     error::ecc_check_float_equiv(*schemes[k],
                                                  in.layer_weights[l]);
    places[k] = mapping::baseline_placement_layers(in.geometry, stored[k]);
    row_fraction[k].resize(n_layers);
    // The baseline walk is chunk-aligned, not row-aligned: a layer that
    // ends mid-row shares that row with the next layer, and the row counts
    // in both layers' fractions (the fractions can sum past the rows used).
    for (std::size_t l = 0; l < n_layers; ++l) {
      rows.clear();
      for (const auto& addr : places[k][l])
        rows.push_back(dram::bank_id(in.geometry, addr) *
                           in.geometry.rows_per_bank() +
                       dram::bank_row(in.geometry, addr));
      std::sort(rows.begin(), rows.end());
      const auto last = std::unique(rows.begin(), rows.end());
      row_fraction[k][l] =
          static_cast<double>(last - rows.begin()) / total_rows;
    }
  }

  // --- Evaluate every (layer, voltage, multiplier, rung) candidate. --------
  const std::size_t n_v = in.voltages.size();
  const std::size_t n_m = kRefreshLadder.size();
  std::vector<CandidateEval> table(n_layers * n_v * n_m * n_rungs);
  const auto slot = [&](std::size_t l, std::size_t vi, std::size_t mi,
                        std::size_t ki) {
    return ((l * n_v + vi) * n_m + mi) * n_rungs + ki;
  };
  parallel_for(table.size(), [&](std::size_t idx) {
    const std::size_t ki = idx % n_rungs;
    const std::size_t mi = (idx / n_rungs) % n_m;
    const std::size_t vi = (idx / (n_rungs * n_m)) % n_v;
    const std::size_t l = idx / (n_rungs * n_m * n_v);
    const double v = in.voltages[vi];
    const double m = kRefreshLadder[mi];
    const error::EccScheme& scheme = *schemes[ki];
    CandidateEval eval;

    // Feasibility: the combined raw BER (independent voltage and retention
    // failures composing by union) must stay within what the code absorbs
    // at this layer's learned tolerance — the accuracy floor BER_th was
    // derived under.
    const double p_v = ber_model.ber(v);
    const double p_ret = retention_p_fail(in.error_model, m);
    eval.raw_ber = 1.0 - (1.0 - p_v) * (1.0 - p_ret);
    const double th = in.layer_ber_th[l];
    eval.tolerable_ber = scheme.tolerable_raw_ber(th);
    eval.feasible =
        in.layer_met_target[l] && th > 0.0 && eval.raw_ber <= eval.tolerable_ber;

    // Energy: stream the layer's stored weights (payload + check bits) once
    // at the candidate cadence. The refresh charge covers only the layer's
    // own rows (REFs x row fraction), not a module-wide REF bill — other
    // layers are billed by their own candidates.
    const EccStreamOverhead overhead{
        error::ecc_codeword_count(scheme, in.layer_weights[l]),
        scheme.decode_latency_ns(), scheme.decode_energy_nj()};
    const bool ecc = ladder_specs[ki].enabled();
    auto [stats, energy] = weight_stream_energy(
        in.geometry, places[ki][l], stored[ki][l], v, in.salp,
        candidate_policy(m), ecc ? &overhead : nullptr);
    energy.refresh_nj = power_model.region_refresh_energy_nj(
        stats.refreshes, row_fraction[ki][l], v);
    eval.energy_nj = energy.total_nj();
    table[slot(l, vi, mi, ki)] = eval;
  });

  // --- Selection. ----------------------------------------------------------
  // "Better" is a value-based strict order — lower energy, then higher
  // (safer) voltage, then lower multiplier, then weaker (cheaper) code — so
  // the winner does not depend on how candidates were enumerated.
  const auto better = [&](std::size_t avi, std::size_t ami, std::size_t aki,
                          double ae, std::size_t bvi, std::size_t bmi,
                          std::size_t bki, double be) {
    if (ae != be) return ae < be;
    if (in.voltages[avi] != in.voltages[bvi])
      return in.voltages[avi] > in.voltages[bvi];
    if (kRefreshLadder[ami] != kRefreshLadder[bmi])
      return kRefreshLadder[ami] < kRefreshLadder[bmi];
    return schemes[aki]->check_bits() < schemes[bki]->check_bits();
  };

  const auto make_choice = [&](std::size_t l, std::size_t vi, std::size_t mi,
                               std::size_t ki, bool feasible) {
    const CandidateEval& eval = table[slot(l, vi, mi, ki)];
    LayerKnobChoice c;
    c.v_supply = in.voltages[vi];
    c.module_ber = ber_model.ber(c.v_supply);
    c.refresh_multiplier = kRefreshLadder[mi];
    c.ecc = ladder_specs[ki];
    c.ecc_scheme = schemes[ki]->name();
    c.raw_ber = eval.raw_ber;
    c.tolerable_ber = eval.tolerable_ber;
    c.energy_nj = eval.energy_nj;
    c.meets_floor = feasible;
    // Weak cells the chosen cadence actually produces in the layer's rows
    // (deterministic per-cell enumeration; consumes no Rng). Retention
    // candidates do not depend on max_ber; at 0 no voltage candidate is
    // stored or sorted.
    error::ErrorModelSpec spec = in.error_model;
    spec.retention.enabled = true;
    spec.retention.interval_multiplier = c.refresh_multiplier;
    const auto injector = error::ErrorInjector::for_weights(
        in.geometry, *in.profile, spec, places[ki][l], in.layer_weights[l],
        in.seed, 0.0);
    c.retention_weak_cells = injector.retention_candidate_count();
    return c;
  };

  LayerKnobsReport report;
  report.layers.reserve(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    bool found = false;
    std::size_t best_vi = 0, best_mi = 0, best_ki = 0;
    for (std::size_t vi = 0; vi < n_v; ++vi)
      for (std::size_t mi = 0; mi < n_m; ++mi)
        for (std::size_t ki = 0; ki < n_rungs; ++ki) {
          const CandidateEval& eval = table[slot(l, vi, mi, ki)];
          if (!eval.feasible) continue;
          if (!found ||
              better(vi, mi, ki, eval.energy_nj, best_vi, best_mi, best_ki,
                     table[slot(l, best_vi, best_mi, best_ki)].energy_nj)) {
            found = true;
            best_vi = vi;
            best_mi = mi;
            best_ki = ki;
          }
        }
    if (!found) {
      // No candidate meets the floor: fall back to the safest triple
      // (highest voltage, datasheet-closest cadence, strongest code) and
      // report the miss honestly.
      best_vi = 0;
      best_mi = 0;
      best_ki = n_rungs - 1;
    }
    report.layers.push_back(make_choice(l, best_vi, best_mi, best_ki, found));
    report.total_energy_nj += report.layers.back().energy_nj;
  }

  // --- Uniform baseline: the best single triple feasible for every layer. --
  bool u_found = false;
  std::size_t u_vi = 0, u_mi = 0, u_ki = 0;
  double u_total = 0.0;
  for (std::size_t vi = 0; vi < n_v; ++vi)
    for (std::size_t mi = 0; mi < n_m; ++mi)
      for (std::size_t ki = 0; ki < n_rungs; ++ki) {
        bool all = true;
        double total = 0.0;
        for (std::size_t l = 0; l < n_layers; ++l) {
          const CandidateEval& eval = table[slot(l, vi, mi, ki)];
          all &= eval.feasible;
          total += eval.energy_nj;
        }
        if (!all) continue;
        if (!u_found || better(vi, mi, ki, total, u_vi, u_mi, u_ki, u_total)) {
          u_found = true;
          u_vi = vi;
          u_mi = mi;
          u_ki = ki;
          u_total = total;
        }
      }
  report.uniform_feasible = u_found;
  if (u_found) {
    report.uniform_energy_nj = u_total;
    report.uniform.v_supply = in.voltages[u_vi];
    report.uniform.module_ber = ber_model.ber(report.uniform.v_supply);
    report.uniform.refresh_multiplier = kRefreshLadder[u_mi];
    report.uniform.ecc = ladder_specs[u_ki];
    report.uniform.ecc_scheme = schemes[u_ki]->name();
    report.uniform.energy_nj = u_total;
    report.uniform.meets_floor = true;
    const CandidateEval& first = table[slot(0, u_vi, u_mi, u_ki)];
    report.uniform.raw_ber = first.raw_ber;
    double tol = first.tolerable_ber;
    for (std::size_t l = 1; l < n_layers; ++l)
      tol = std::min(tol, table[slot(l, u_vi, u_mi, u_ki)].tolerable_ber);
    report.uniform.tolerable_ber = tol;  // the binding layer's constraint
  }
  return report;
}

}  // namespace sparkxd::core
