#include "scenario/scenario.hpp"

#include "common/contracts.hpp"
#include "scenario/matrix.hpp"

namespace sparkxd::scenario {

core::PipelineConfig Scenario::pipeline_config() const {
  core::PipelineConfig cfg = *this;
  cfg.network.seed = seed;
  // A simulated refresh policy brings its retention-failure errors along:
  // the effective window stretches with the policy's interval multiplier.
  if (refresh.simulated()) {
    cfg.error_model.retention.enabled = true;
    cfg.error_model.retention.interval_multiplier =
        refresh.effective_multiplier();
  }
  return cfg;
}

void Scenario::validate() const {
  SPARKXD_REQUIRE(!name.empty(), "scenario name must not be empty");
  for (const char c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
    SPARKXD_REQUIRE(ok, "scenario name '" + name +
                            "' must use only [a-z0-9-] characters");
  }
  pipeline_config().validate();
}

std::string refresh_label(const dram::RefreshPolicy& policy) {
  if (!policy.simulated()) return "off";
  std::string mult = std::to_string(policy.effective_multiplier());
  // Trim the trailing zeros std::to_string's fixed form produces.
  mult.erase(mult.find_last_not_of('0') + 1);
  if (!mult.empty() && mult.back() == '.') mult.pop_back();
  return mult + "x";
}

const char* model_label(error::ErrorModelKind kind) noexcept {
  switch (kind) {
    case error::ErrorModelKind::kModel0Uniform:
      return "m0";
    case error::ErrorModelKind::kModel1Bitline:
      return "m1";
    case error::ErrorModelKind::kModel2Wordline:
      return "m2";
    case error::ErrorModelKind::kModel3DataDependent:
      return "m3";
  }
  return "m?";
}

namespace {

error::ErrorModelSpec model_spec(error::ErrorModelKind kind) {
  error::ErrorModelSpec spec;
  spec.kind = kind;
  return spec;
}

/// The two golden-locked smoke scenarios: sized like the determinism tests'
/// tiny config so a full run costs ~0.25 s, with a trimmed voltage grid.
Scenario smoke_digits_m0() {
  Scenario s;
  s.name = "smoke-digits-m0";
  s.description =
      "tiny digits net, commodity DRAM, Model-0 — golden-locked smoke run";
  s.network.n_neurons = 25;
  s.train_samples = 100;
  s.test_samples = 50;
  s.baseline_epochs = 1;
  s.fault_training.ber_stages = {1e-5, 1e-3};
  s.fault_training.eval_trials = 2;
  s.voltages = {1.250, 1.100, 1.025};
  return s;
}

Scenario smoke_fashion_salp_m1() {
  Scenario s;
  s.name = "smoke-fashion-salp-m1";
  s.description =
      "tiny fashion net, SALP DRAM, Model-1 — golden-locked smoke run";
  s.task = data::Task::kFashion;
  s.network.n_neurons = 25;
  s.train_samples = 100;
  s.test_samples = 50;
  s.baseline_epochs = 1;
  s.fault_training.ber_stages = {1e-5, 1e-3};
  s.fault_training.eval_trials = 2;
  s.salp = true;
  s.error_model = model_spec(error::ErrorModelKind::kModel1Bitline);
  s.voltages = {1.250, 1.100, 1.025};
  return s;
}

/// Golden-locked refresh-axis smoke runs: the nominal cadence (REF stalls
/// on, retention errors negligible) and a 32x relaxed cadence (few REFs,
/// visible retention errors) on the same tiny workloads as the voltage
/// smokes.
Scenario smoke_digits_m0_refresh() {
  Scenario s = smoke_digits_m0();
  s.name = "smoke-digits-m0-refresh";
  s.description =
      "tiny digits net, commodity DRAM, Model-0, nominal refresh — "
      "golden-locked smoke run";
  s.refresh = dram::RefreshPolicy::nominal();
  return s;
}

Scenario smoke_fashion_salp_m1_refresh() {
  Scenario s = smoke_fashion_salp_m1();
  s.name = "smoke-fashion-salp-m1-refresh";
  s.description =
      "tiny fashion net, SALP DRAM, Model-1, 32x relaxed refresh — "
      "golden-locked smoke run";
  s.refresh = dram::RefreshPolicy::reduced(32.0);
  return s;
}

/// Golden-locked deep-stack smoke run: the layer-stack pipeline end to end
/// — per-layer tolerance analysis, per-layer mapping, per-layer report
/// fields — on the same tiny digits workload as the voltage smoke.
Scenario smoke_digits_deep() {
  Scenario s = smoke_digits_m0();
  s.name = "smoke-digits-deep";
  s.description =
      "tiny 2-layer digits net (784-48-25), commodity DRAM, Model-0 — "
      "golden-locked deep-stack smoke run";
  s.network.hidden_neurons = {48};
  return s;
}

/// Golden-locked ECC-axis smoke run: SECDED(72,64) over the same tiny
/// digits workload — raw injection + codeword scrub, BCH escalation at the
/// aggressive voltages, check-bit streaming, and the ecc digest fields.
Scenario smoke_digits_ecc() {
  Scenario s = smoke_digits_m0();
  s.name = "smoke-digits-ecc";
  s.description =
      "tiny digits net, commodity DRAM, Model-0, SECDED ECC — "
      "golden-locked ecc-axis smoke run";
  s.ecc = {error::EccKind::kSecded, 64};
  return s;
}

/// Golden-locked fixed-point smoke run: the inference kernel with kEventFx
/// (Q47.16 integer accumulation over the spike list) on the same tiny digits
/// workload. The float `event` mode is the default and needs no digest of
/// its own; the fixed-point drive is numerically different, so this
/// scenario pins it.
Scenario smoke_digits_event_fx() {
  Scenario s = smoke_digits_m0();
  s.name = "smoke-digits-event-fx";
  s.description =
      "tiny digits net, commodity DRAM, Model-0, fixed-point event engine — "
      "golden-locked smoke run";
  s.network.engine = snn::EngineKind::kEventFx;
  return s;
}

/// Golden-locked knob-search smoke run: the per-layer (voltage x refresh x
/// ECC) operating-point search over the deep stack, with all three axes
/// engaged (SECDED base code, 8x relaxed refresh) so every candidate
/// dimension is exercised — the digest's K<n> lines pin the chosen triples
/// and the per-layer-vs-uniform energy split.
Scenario smoke_digits_knobs() {
  Scenario s = smoke_digits_deep();
  s.name = "smoke-digits-knobs";
  s.description =
      "tiny 2-layer digits net, SECDED ECC, 8x relaxed refresh, per-layer "
      "knob search — golden-locked smoke run";
  s.ecc = {error::EccKind::kSecded, 64};
  s.refresh = dram::RefreshPolicy::reduced(8.0);
  s.layer_knobs.enabled = true;
  return s;
}

std::vector<Scenario> build_registry() {
  std::vector<Scenario> all;
  all.push_back(smoke_digits_m0());
  all.push_back(smoke_fashion_salp_m1());
  all.push_back(smoke_digits_m0_refresh());
  all.push_back(smoke_fashion_salp_m1_refresh());
  all.push_back(smoke_digits_deep());
  all.push_back(smoke_digits_ecc());
  all.push_back(smoke_digits_event_fx());
  all.push_back(smoke_digits_knobs());

  const SizeSpec small{"small", 64, 250, 100, 1};
  const SizeSpec medium{"medium", 100, 400, 150, 2};
  const GeometrySpec commodity{"commodity", false};
  const GeometrySpec salp{"salp", true};

  // Main grid: tasks × sizes × DRAM organizations under the paper's pick,
  // Model-0 (8 scenarios).
  ScenarioMatrix main_grid;
  main_grid.tasks = {data::Task::kDigits, data::Task::kFashion};
  main_grid.sizes = {small, medium};
  main_grid.geometries = {commodity, salp};
  main_grid.error_models = {
      {"m0", model_spec(error::ErrorModelKind::kModel0Uniform)}};
  for (auto& s : main_grid.expand()) all.push_back(std::move(s));

  // Stripe-model grid: the bitline/wordline EDEN models on the small digits
  // net across both organizations (4 scenarios).
  ScenarioMatrix stripes;
  stripes.tasks = {data::Task::kDigits};
  stripes.sizes = {small};
  stripes.geometries = {commodity, salp};
  stripes.error_models = {
      {"m1", model_spec(error::ErrorModelKind::kModel1Bitline)},
      {"m2", model_spec(error::ErrorModelKind::kModel2Wordline)}};
  for (auto& s : stripes.expand()) all.push_back(std::move(s));

  // Deep-stack grid: the `layers` axis — 2- and 3-layer stacks on the small
  // nets across both tasks, per-layer tolerance analysis + per-layer
  // error-aware mapping end to end (4 scenarios, e.g.
  // "digits-small-commodity-m0-deep2"), plus one SALP point so the deep
  // path also exercises the subarray-parallel organization (5 scenarios).
  ScenarioMatrix deep_grid;
  deep_grid.tasks = {data::Task::kDigits, data::Task::kFashion};
  deep_grid.sizes = {small};
  deep_grid.geometries = {commodity};
  deep_grid.error_models = {
      {"m0", model_spec(error::ErrorModelKind::kModel0Uniform)}};
  deep_grid.layer_stacks = {{"deep2", {64}}, {"deep3", {64, 48}}};
  for (auto& s : deep_grid.expand()) all.push_back(std::move(s));
  ScenarioMatrix deep_salp;
  deep_salp.tasks = {data::Task::kDigits};
  deep_salp.sizes = {small};
  deep_salp.geometries = {salp};
  deep_salp.error_models = {
      {"m0", model_spec(error::ErrorModelKind::kModel0Uniform)}};
  deep_salp.layer_stacks = {{"flat", {}}, {"deep2", {64}}};
  // Only the deep cell is new; the flat cell would duplicate the main
  // grid's digits-small-salp-m0, so keep just the deep expansion.
  for (auto& s : deep_salp.expand())
    if (!s.network.hidden_neurons.empty()) all.push_back(std::move(s));

  // Refresh grid: the second approximation axis on the small nets across
  // both tasks and organizations — nominal cadence plus two relaxed-refresh
  // points in the retention decades the voltage axis also spans
  // (12 scenarios, e.g. "digits-small-salp-m0-relaxed-refresh-32x").
  ScenarioMatrix refresh_grid;
  refresh_grid.tasks = {data::Task::kDigits, data::Task::kFashion};
  refresh_grid.sizes = {small};
  refresh_grid.geometries = {commodity, salp};
  refresh_grid.error_models = {
      {"m0", model_spec(error::ErrorModelKind::kModel0Uniform)}};
  refresh_grid.refresh_policies = {
      {"nominal-refresh", dram::RefreshPolicy::nominal()},
      {"relaxed-refresh-8x", dram::RefreshPolicy::reduced(8.0)},
      {"relaxed-refresh-32x", dram::RefreshPolicy::reduced(32.0)}};
  for (auto& s : refresh_grid.expand()) all.push_back(std::move(s));

  // ECC grid: the third approximation axis on the small digits net — every
  // registered scheme kind at the classic 64-bit codeword plus the 512 B
  // large-codeword BCH mode (5 scenarios, e.g.
  // "digits-small-commodity-m0-ecc-bch").
  ScenarioMatrix ecc_grid;
  ecc_grid.tasks = {data::Task::kDigits};
  ecc_grid.sizes = {small};
  ecc_grid.geometries = {commodity};
  ecc_grid.error_models = {
      {"m0", model_spec(error::ErrorModelKind::kModel0Uniform)}};
  ecc_grid.ecc_schemes = {
      {"ecc-parity", {error::EccKind::kParity, 64}},
      {"ecc-secded", {error::EccKind::kSecded, 64}},
      {"ecc-hsiao", {error::EccKind::kHsiao, 64}},
      {"ecc-bch", {error::EccKind::kBch, 64}},
      {"ecc-bch512b", {error::EccKind::kBch, 4096}}};
  for (auto& s : ecc_grid.expand()) all.push_back(std::move(s));

  // ECC × SALP/Model-1 cross: the scrub path composing with the bitline
  // stripe model and subarray-parallel timing, including the 4 KB
  // large-codeword mode (2 scenarios).
  ScenarioMatrix ecc_salp;
  ecc_salp.tasks = {data::Task::kFashion};
  ecc_salp.sizes = {small};
  ecc_salp.geometries = {salp};
  ecc_salp.error_models = {
      {"m1", model_spec(error::ErrorModelKind::kModel1Bitline)}};
  ecc_salp.ecc_schemes = {
      {"ecc-secded", {error::EccKind::kSecded, 64}},
      {"ecc-bch4kb", {error::EccKind::kBch, 32768}}};
  for (auto& s : ecc_salp.expand()) all.push_back(std::move(s));

  for (const auto& s : all) s.validate();
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      SPARKXD_ENSURE(all[i].name != all[j].name,
                     "duplicate scenario name: " + all[i].name);
  return all;
}

}  // namespace

const std::vector<Scenario>& builtin_scenarios() {
  static const std::vector<Scenario> registry = build_registry();
  return registry;
}

const Scenario* find_scenario(std::string_view name) {
  for (const auto& s : builtin_scenarios())
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<Scenario> match_scenarios(std::string_view substring) {
  std::vector<Scenario> out;
  for (const auto& s : builtin_scenarios())
    if (s.name.find(substring) != std::string::npos) out.push_back(s);
  return out;
}

}  // namespace sparkxd::scenario
