// Tests for the scenario subsystem: the stable JSON writer, the built-in
// registry, ScenarioMatrix expansion, runner determinism across thread
// counts, and the golden-report regression harness.
//
// Golden workflow: the digests of the two smoke scenarios live in
// tests/golden/<name>.digest. When a change intentionally moves the numbers
// (new training schedule, energy-model fix, ...), regenerate them with
//
//     ./build/scenario_test --update-golden        (or SPARKXD_UPDATE_GOLDEN=1)
//
// and commit the diff. Unintentional drift — any change to accuracy, BER,
// energy, or timing at 6-digit precision — fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "scenario/matrix.hpp"
#include "scenario/runner.hpp"
#include "test_env_util.hpp"

#ifndef SPARKXD_GOLDEN_DIR
#error "scenario_test needs SPARKXD_GOLDEN_DIR (set by CMakeLists.txt)"
#endif

namespace sparkxd::scenario {
namespace {

bool g_update_golden = false;

using testutil::ThreadsOverride;

std::string golden_path(std::string_view scenario_name) {
  return std::string(SPARKXD_GOLDEN_DIR) + "/" + std::string(scenario_name) +
         ".digest";
}

// ------------------------------------------------------------- JSON writer

TEST(JsonWriter, NestedDocumentHasStableLayout) {
  json::Writer w;
  w.begin_object();
  w.field("name", "x");
  w.key("values").begin_array().value(1.5).value(2).end_array();
  w.key("inner").begin_object().field("flag", true).end_object();
  w.key("empty").begin_array().end_array();
  w.end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"values\": [\n"
            "    1.5,\n"
            "    2\n"
            "  ],\n"
            "  \"inner\": {\n"
            "    \"flag\": true\n"
            "  },\n"
            "  \"empty\": []\n"
            "}");
}

TEST(JsonWriter, CompactMode) {
  json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.field("a", 1).key("b").begin_array().value(true).value("s").end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[true,\"s\"]}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json::escape("plain"), "plain");
}

TEST(JsonWriter, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json::number(0.5), "0.5");
  EXPECT_EQ(json::number(1e-5), "1e-05");
  EXPECT_EQ(json::number(1.25), "1.25");
  EXPECT_EQ(json::number(0.0), "0");
  // NaN / inf are not JSON numbers — a clear error beats a silent null
  // (common_test locks down the message; the full coverage lives there).
  EXPECT_THROW((void)json::number(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_THROW((void)json::number(std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(JsonWriter, RejectsMalformedNesting) {
  {
    json::Writer w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), ContractViolation);  // value without key
  }
  {
    json::Writer w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), ContractViolation);  // key inside array
  }
  {
    json::Writer w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), ContractViolation);  // mismatched end
  }
  {
    json::Writer w;
    w.value(1.0);
    EXPECT_THROW(w.value(2.0), ContractViolation);  // two roots
  }
}

// ---------------------------------------------------------------- registry

TEST(Registry, HasAtLeastTenValidUniqueScenarios) {
  const auto& all = builtin_scenarios();
  EXPECT_GE(all.size(), 10u);
  std::set<std::string> names;
  for (const auto& s : all) {
    EXPECT_NO_THROW(s.validate()) << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate: " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
}

TEST(Registry, CoversTheEvaluationGrid) {
  const auto& all = builtin_scenarios();
  std::set<data::Task> tasks;
  std::set<bool> salp;
  std::set<error::ErrorModelKind> models;
  for (const auto& s : all) {
    tasks.insert(s.task);
    salp.insert(s.salp);
    models.insert(s.error_model.kind);
  }
  EXPECT_EQ(tasks.size(), 2u);  // digits and fashion
  EXPECT_EQ(salp.size(), 2u);   // commodity and SALP
  EXPECT_GE(models.size(), 3u); // Model-0, Model-1, Model-2
}

TEST(Registry, FindAndMatch) {
  ASSERT_NE(find_scenario("smoke-digits-m0"), nullptr);
  EXPECT_EQ(find_scenario("smoke-digits-m0")->network.n_neurons, 25u);
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  const auto smoke = match_scenarios("smoke");
  EXPECT_EQ(smoke.size(), 8u);
  EXPECT_TRUE(match_scenarios("zzz").empty());
}

TEST(Registry, CoversTheLayerStackAxis) {
  // The deep grid contributes 2- and 3-layer stacks on both tasks plus a
  // SALP point and the golden-locked smoke; pre-existing cells stay flat.
  std::size_t flat = 0, deep2 = 0, deep3 = 0;
  for (const auto& s : builtin_scenarios()) {
    switch (s.network.hidden_neurons.size()) {
      case 0: ++flat; break;
      case 1: ++deep2; break;
      default: ++deep3; break;
    }
  }
  EXPECT_GE(flat, 10u);
  EXPECT_GE(deep2, 3u);
  EXPECT_GE(deep3, 2u);
  EXPECT_FALSE(match_scenarios("deep2").empty());
  EXPECT_FALSE(match_scenarios("deep3").empty());
  ASSERT_NE(find_scenario("digits-small-salp-m0-deep2"), nullptr);
}

TEST(Scenario, LoweringCarriesTheLayerStack) {
  const auto* deep = find_scenario("smoke-digits-deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->network.hidden_neurons.size(), 1u);
  const auto cfg = deep->pipeline_config();
  EXPECT_EQ(cfg.network.hidden_neurons, deep->network.hidden_neurons);
  EXPECT_EQ(cfg.network.n_layers(), 2u);

  // Flat scenarios lower to the legacy single-layer network.
  const auto flat_cfg = find_scenario("smoke-digits-m0")->pipeline_config();
  EXPECT_TRUE(flat_cfg.network.hidden_neurons.empty());
  EXPECT_EQ(flat_cfg.network.n_layers(), 1u);
}

TEST(Registry, CoversTheRefreshAxis) {
  // The refresh grid contributes nominal and relaxed-refresh scenarios; the
  // pre-existing cells keep the disabled (legacy) policy.
  std::size_t disabled = 0, nominal = 0, reduced = 0;
  for (const auto& s : builtin_scenarios()) {
    switch (s.refresh.mode) {
      case dram::RefreshMode::kDisabled: ++disabled; break;
      case dram::RefreshMode::kNominal: ++nominal; break;
      case dram::RefreshMode::kReduced: ++reduced; break;
    }
  }
  EXPECT_GE(disabled, 10u);
  EXPECT_GE(nominal, 2u);
  EXPECT_GE(reduced, 4u);
  EXPECT_FALSE(match_scenarios("relaxed-refresh").empty());
}

TEST(Scenario, LoweringCouplesRefreshAndRetention) {
  const auto* relaxed = find_scenario("smoke-fashion-salp-m1-refresh");
  ASSERT_NE(relaxed, nullptr);
  const auto cfg = relaxed->pipeline_config();
  EXPECT_EQ(cfg.refresh.mode, dram::RefreshMode::kReduced);
  EXPECT_TRUE(cfg.error_model.retention.enabled);
  EXPECT_DOUBLE_EQ(cfg.error_model.retention.interval_multiplier, 32.0);

  // Legacy scenarios lower with refresh and retention both off.
  const auto legacy_cfg = find_scenario("smoke-digits-m0")->pipeline_config();
  EXPECT_EQ(legacy_cfg.refresh.mode, dram::RefreshMode::kDisabled);
  EXPECT_FALSE(legacy_cfg.error_model.retention.enabled);
}

TEST(Registry, CoversTheEccAxis) {
  // The ecc grids contribute every scheme kind (plus the 512 B and 4 KB
  // large-codeword BCH modes on the SALP cell); pre-existing cells stay
  // unprotected.
  std::size_t off = 0, protected_count = 0;
  std::set<error::EccKind> kinds;
  std::set<std::size_t> sizes;
  for (const auto& s : builtin_scenarios()) {
    if (s.ecc.enabled()) {
      ++protected_count;
      kinds.insert(s.ecc.kind);
      sizes.insert(s.ecc.data_bits);
    } else {
      ++off;
    }
  }
  EXPECT_GE(off, 10u);
  EXPECT_GE(protected_count, 7u);
  EXPECT_EQ(kinds.size(), 4u);  // parity, secded, hsiao, bch
  EXPECT_GE(sizes.size(), 2u);  // 64-bit and a large-codeword mode
  ASSERT_NE(find_scenario("digits-small-commodity-m0-ecc-bch"), nullptr);
  EXPECT_FALSE(match_scenarios("ecc-bch512b").empty());
}

TEST(Scenario, LoweringCarriesTheEccSpec) {
  const auto* ecc = find_scenario("smoke-digits-ecc");
  ASSERT_NE(ecc, nullptr);
  EXPECT_EQ(ecc->ecc.kind, error::EccKind::kSecded);
  const auto cfg = ecc->pipeline_config();
  EXPECT_EQ(cfg.ecc.kind, error::EccKind::kSecded);
  EXPECT_EQ(cfg.ecc.data_bits, 64u);

  // Legacy scenarios lower with ECC disabled (the unprotected path).
  const auto legacy_cfg = find_scenario("smoke-digits-m0")->pipeline_config();
  EXPECT_FALSE(legacy_cfg.ecc.enabled());
}

TEST(Scenario, RefreshLabels) {
  EXPECT_EQ(refresh_label(dram::RefreshPolicy::disabled()), "off");
  EXPECT_EQ(refresh_label(dram::RefreshPolicy::nominal()), "1x");
  EXPECT_EQ(refresh_label(dram::RefreshPolicy::reduced(8.0)), "8x");
  EXPECT_EQ(refresh_label(dram::RefreshPolicy::reduced(8.5)), "8.5x");
}

TEST(Registry, ConfigBlocksOfEveryBuiltinArePinned) {
  // The config blocks of all 44 built-ins, serialized over empty reports
  // and folded with FNV-1a 64. The value was recorded before Scenario
  // became a named PipelineConfig, so any change to a registry entry or
  // to what the JSON config block reads moves it.
  std::vector<ScenarioResult> results;
  for (const auto& s : builtin_scenarios())
    results.push_back({s, core::PipelineReport{}});
  ASSERT_EQ(results.size(), 44u);
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : to_json(results)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0xc0481c1670c035e1ull) << std::hex << h;
}

TEST(Registry, GoldenScenariosExistAndAreFast) {
  for (const auto name : kGoldenScenarios) {
    const auto* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    // Golden runs must stay cheap: tests and CI run them repeatedly.
    EXPECT_LE(s->network.n_neurons, 32u) << name;
    EXPECT_LE(s->train_samples, 120u) << name;
    EXPECT_LE(s->voltages.size(), 3u) << name;
  }
}

TEST(Scenario, ValidateRejectsBadNames) {
  Scenario s = *find_scenario("smoke-digits-m0");
  s.name = "";
  EXPECT_THROW(s.validate(), ContractViolation);
  s.name = "Has Spaces";
  EXPECT_THROW(s.validate(), ContractViolation);
  s.name = "ok-name-2";
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, ValidateRejectsBadVoltageGrid) {
  Scenario s = *find_scenario("smoke-digits-m0");
  s.voltages = {1.1, 1.25};  // ascending
  EXPECT_THROW(s.validate(), ContractViolation);
  s.voltages = {};
  EXPECT_THROW(s.validate(), ContractViolation);
}

// A Scenario handed straight to run_pipeline would be sliced to its
// PipelineConfig without the seed stamp and the refresh/retention coupling;
// scenario.hpp deletes that overload.
template <class S>
concept RunsDirectly = requires(const S& s) { core::run_pipeline(s); };
static_assert(!RunsDirectly<Scenario>);
static_assert(RunsDirectly<core::PipelineConfig>);

TEST(Scenario, LoweringStampsTheNetworkSeed) {
  Scenario s = *find_scenario("smoke-digits-m0");
  s.seed = 9001;
  EXPECT_EQ(s.network.seed, snn::NetworkConfig{}.seed);
  EXPECT_EQ(s.pipeline_config().network.seed, 9001u);
  EXPECT_EQ(s.pipeline_config().seed, 9001u);
}

// ------------------------------------------------------------ field fuzzing

/// One corrupted field of a scenario: what was corrupted, and how.
struct Mutation {
  std::string label;
  std::function<void(Scenario&)> apply;
};

/// Invalid values for every settable field of `base` a program can set
/// (enums and booleans excluded: every value of them is valid). `gen`
/// picks the wrapped counts and the list positions that get corrupted.
std::vector<Mutation> invalid_mutations(const Scenario& base,
                                        std::mt19937_64& gen) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto wrapped = [&] {
    return std::numeric_limits<std::size_t>::max() - gen() % 4096;
  };
  const auto huge = [&] { return std::size_t{1} << (40 + gen() % 23); };
  std::vector<Mutation> out;
  const auto add = [&](std::string label, std::function<void(Scenario&)> f) {
    out.push_back({std::move(label), std::move(f)});
  };

  // Counts: zero, a wrapped negative and a huge value each.
  const auto counts = [&](const std::string& field, auto member) {
    for (const std::size_t v : {std::size_t{0}, wrapped(), huge()})
      add(field + "=" + std::to_string(v), [=](Scenario& s) { member(s) = v; });
  };
  counts("n_neurons", [](Scenario& s) -> auto& { return s.network.n_neurons; });
  counts("n_inputs", [](Scenario& s) -> auto& { return s.network.n_inputs; });
  counts("timesteps", [](Scenario& s) -> auto& { return s.network.timesteps; });
  counts("hidden", [](Scenario& s) -> auto& {
    return s.network.hidden_neurons.emplace_back();
  });
  counts("train_samples", [](Scenario& s) -> auto& { return s.train_samples; });
  counts("test_samples", [](Scenario& s) -> auto& { return s.test_samples; });
  counts("eval_trials",
         [](Scenario& s) -> auto& { return s.fault_training.eval_trials; });
  for (const std::size_t v : {wrapped(), huge()})  // zero epochs is valid
    add("baseline_epochs=" + std::to_string(v),
        [=](Scenario& s) { s.baseline_epochs = v; });
  add("n_inputs=783", [](Scenario& s) { s.network.n_inputs = 783; });

  // Voltage grid and BER stages: a bad entry at a drawn position, a broken
  // order, a duplicate, and the empty list.
  const auto lists = [&](const std::string& field, std::size_t n, auto member,
                         std::initializer_list<double> bad) {
    for (const double v : bad) {
      const std::size_t at = gen() % n;
      add(field + "[" + std::to_string(at) + "]=" + std::to_string(v),
          [=](Scenario& s) { member(s)[at] = v; });
    }
    add(field + " reversed", [=](Scenario& s) {
      std::reverse(member(s).begin(), member(s).end());
    });
    add(field + " duplicate", [=](Scenario& s) {
      member(s).insert(member(s).begin() + 1, member(s).front());
    });
    add(field + " empty", [=](Scenario& s) { member(s).clear(); });
  };
  lists("voltages", base.voltages.size(),
        [](Scenario& s) -> auto& { return s.voltages; },
        {kNan, kInf, -kInf, -1.1, 0.0});
  lists("ber_stages", base.fault_training.ber_stages.size(),
        [](Scenario& s) -> auto& { return s.fault_training.ber_stages; },
        {kNan, kInf, -kInf, -1e-4, 0.0, 1.0, 1.5});

  // Geometry: every level zero or a wrapped uint32, a row that holds no
  // whole number of bursts, and a burst that holds no whole FP32 weight.
  using Level = std::uint32_t dram::Geometry::*;
  const std::pair<const char*, Level> levels[] = {
      {"channels", &dram::Geometry::channels},
      {"ranks_per_channel", &dram::Geometry::ranks_per_channel},
      {"chips_per_rank", &dram::Geometry::chips_per_rank},
      {"banks_per_chip", &dram::Geometry::banks_per_chip},
      {"subarrays_per_bank", &dram::Geometry::subarrays_per_bank},
      {"rows_per_subarray", &dram::Geometry::rows_per_subarray},
      {"columns_per_row", &dram::Geometry::columns_per_row},
      {"column_bytes", &dram::Geometry::column_bytes},
      {"burst_columns", &dram::Geometry::burst_columns}};
  for (const auto& [field, level] : levels) {
    const std::uint32_t big =
        std::numeric_limits<std::uint32_t>::max() -
        static_cast<std::uint32_t>(gen() % 16);
    for (const std::uint32_t v : {std::uint32_t{0}, big})
      add(std::string(field) + "=" + std::to_string(v),
          [=](Scenario& s) { s.geometry.*level = v; });
  }
  add("columns_per_row=12",
      [](Scenario& s) { s.geometry.columns_per_row = 12; });
  add("2-byte bursts", [](Scenario& s) {
    s.geometry.burst_columns = 1;
    s.geometry.column_bytes = 2;
  });

  // ECC sizes: off the 32-bit grid, outside [32, 32768], and shapes a
  // scheme cannot build.
  for (const std::size_t v :
       {std::size_t{0}, std::size_t{31}, std::size_t{33}, std::size_t{65536},
        wrapped()})
    add("ecc.data_bits=" + std::to_string(v),
        [=](Scenario& s) { s.ecc.data_bits = v; });
  add("secded:128",
      [](Scenario& s) { s.ecc = {error::EccKind::kSecded, 128}; });
  add("hsiao:8192",
      [](Scenario& s) { s.ecc = {error::EccKind::kHsiao, 8192}; });

  // Refresh multipliers, and the retention spec where no simulated policy
  // overrides it in pipeline_config().
  for (const double m : {0.5, 0.0, -8.0, kNan, kInf, 1025.0, 2e25}) {
    add("refresh=" + std::to_string(m),
        [=](Scenario& s) { s.refresh = dram::RefreshPolicy::reduced(m); });
    if (!base.refresh.simulated())
      add("retention=" + std::to_string(m), [=](Scenario& s) {
        s.error_model.retention = {true, m};
      });
  }

  for (const char* name : {"", "Smoke", "a b", "a_b", "a/b"})
    add(std::string("name='") + name + "'",
        [=](Scenario& s) { s.name = name; });
  return out;
}

TEST(ScenarioFuzz, CorruptedFieldsAreRejectedBeforeAnyDataIsBuilt) {
  // Every mutant must fail validate(), and run_scenarios must fail with the
  // same message: it validates the whole batch before it builds a dataset.
  const auto failure = [](const std::function<void()>& f) -> std::string {
    try {
      f();
    } catch (const ContractViolation& e) {
      return e.what();
    }
    return {};
  };
  std::mt19937_64 gen(20261019);
  std::size_t mutants = 0;
  for (const auto name : kGoldenScenarios) {
    const Scenario& base = *find_scenario(name);
    for (const auto& m : invalid_mutations(base, gen)) {
      Scenario s = base;
      m.apply(s);
      const std::string why = failure([&] { s.validate(); });
      if (why.empty()) {
        ADD_FAILURE() << name << ": " << m.label << " passed validate()";
        continue;
      }
      EXPECT_EQ(failure([&] { (void)run_scenarios({s}); }), why)
          << name << ": " << m.label;
      ++mutants;
    }
  }
  EXPECT_GE(mutants, 8u * 80u);
}

// ------------------------------------------------------------------ matrix

ScenarioMatrix small_matrix() {
  ScenarioMatrix m;
  m.tasks = {data::Task::kDigits, data::Task::kFashion};
  m.sizes = {{"tiny", 25, 100, 50, 1}};
  m.geometries = {{"commodity", false}, {"salp", true}};
  error::ErrorModelSpec m1;
  m1.kind = error::ErrorModelKind::kModel1Bitline;
  m.error_models = {{"m0", {}}, {"m1", m1}};
  return m;
}

TEST(Matrix, ExpandsTheFullCrossProduct) {
  const auto scenarios = small_matrix().expand();
  ASSERT_EQ(scenarios.size(), 2u * 1u * 2u * 2u);
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size());
  EXPECT_TRUE(names.count("digits-tiny-commodity-m0"));
  EXPECT_TRUE(names.count("fashion-tiny-salp-m1"));
}

TEST(Matrix, ExpansionIsDeterministic) {
  const auto a = small_matrix().expand();
  const auto b = small_matrix().expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

TEST(Matrix, RefreshAxisSuffixesNamesOnlyWhenMultiValued) {
  auto m = small_matrix();
  m.tasks = {data::Task::kDigits};
  m.error_models = {{"m0", {}}};
  m.geometries = {{"commodity", false}};
  m.refresh_policies = {{"nominal-refresh", dram::RefreshPolicy::nominal()},
                        {"relaxed-refresh-8x", dram::RefreshPolicy::reduced(8.0)}};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].name, "digits-tiny-commodity-m0-nominal-refresh");
  EXPECT_EQ(scenarios[1].name, "digits-tiny-commodity-m0-relaxed-refresh-8x");
  EXPECT_EQ(scenarios[0].refresh.mode, dram::RefreshMode::kNominal);
  EXPECT_DOUBLE_EQ(scenarios[1].refresh.interval_multiplier, 8.0);
  // Single-valued refresh axis (the default) leaves names untouched.
  auto single = small_matrix();
  for (const auto& s : single.expand())
    EXPECT_EQ(s.name.find("ref"), std::string::npos) << s.name;
}

TEST(Matrix, EccAxisSuffixesNamesOnlyWhenMultiValued) {
  auto m = small_matrix();
  m.tasks = {data::Task::kDigits};
  m.error_models = {{"m0", {}}};
  m.geometries = {{"commodity", false}};
  m.ecc_schemes = {{"ecc-off", {}},
                   {"ecc-secded", {error::EccKind::kSecded, 64}},
                   {"ecc-bch512b", {error::EccKind::kBch, 4096}}};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].name, "digits-tiny-commodity-m0-ecc-off");
  EXPECT_EQ(scenarios[1].name, "digits-tiny-commodity-m0-ecc-secded");
  EXPECT_EQ(scenarios[2].name, "digits-tiny-commodity-m0-ecc-bch512b");
  EXPECT_FALSE(scenarios[0].ecc.enabled());
  EXPECT_EQ(scenarios[1].ecc.kind, error::EccKind::kSecded);
  EXPECT_EQ(scenarios[2].ecc.data_bits, 4096u);
  EXPECT_NE(scenarios[2].description.find("ecc bch4096b"), std::string::npos);
  // Single-valued ecc axis (the default) leaves names untouched.
  for (const auto& s : small_matrix().expand())
    EXPECT_EQ(s.name.find("ecc"), std::string::npos) << s.name;
}

TEST(Matrix, DuplicateAxisValueNamesCollideLoudly) {
  // Two refresh-axis values with the same name lower two different tuples
  // to one scenario name; in a registry the second would silently shadow
  // the first. expand() must throw and name both source tuples.
  auto m = small_matrix();
  m.tasks = {data::Task::kDigits};
  m.error_models = {{"m0", {}}};
  m.geometries = {{"commodity", false}};
  m.refresh_policies = {{"relaxed", dram::RefreshPolicy::reduced(4.0)},
                        {"relaxed", dram::RefreshPolicy::reduced(8.0)}};
  try {
    (void)m.expand();
    FAIL() << "duplicate names must not expand silently";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario name collision"), std::string::npos)
        << what;
    EXPECT_NE(what.find("produced by both"), std::string::npos) << what;
    EXPECT_NE(what.find("refresh=relaxed"), std::string::npos) << what;
  }
}

TEST(Matrix, CrossAxisSuffixCollisionsAreDetected) {
  // Suffixes are plain dash joins, so distinctly-named values on DIFFERENT
  // axes can still concatenate to the same name: ecc "a" + refresh "b-c"
  // == ecc "a-b" + refresh "c". The guard catches those too.
  auto m = small_matrix();
  m.tasks = {data::Task::kDigits};
  m.error_models = {{"m0", {}}};
  m.geometries = {{"commodity", false}};
  m.ecc_schemes = {{"a", {}}, {"a-b", {}}};
  m.refresh_policies = {{"b-c", dram::RefreshPolicy::nominal()},
                        {"c", dram::RefreshPolicy::nominal()}};
  EXPECT_THROW((void)m.expand(), ContractViolation);
}

TEST(Matrix, RejectsEmptyAxes) {
  auto m = small_matrix();
  m.sizes.clear();
  EXPECT_THROW((void)m.expand(), ContractViolation);
  auto m2 = small_matrix();
  m2.error_models.clear();
  EXPECT_THROW((void)m2.expand(), ContractViolation);
  auto m3 = small_matrix();
  m3.geometries[0].name.clear();
  EXPECT_THROW((void)m3.expand(), ContractViolation);
}

// ---------------------------------------------------- runner + golden files

constexpr std::size_t kGoldenCount = std::size(kGoldenScenarios);

/// Runs one golden scenario once per binary invocation and caches the
/// result — several tests below reuse it.
const ScenarioResult& golden_result(std::size_t which) {
  static ScenarioResult cache[kGoldenCount];
  static bool done[kGoldenCount] = {};
  SPARKXD_REQUIRE(which < kGoldenCount, "golden scenario index out of range");
  if (!done[which]) {
    const auto* s = find_scenario(kGoldenScenarios[which]);
    SPARKXD_REQUIRE(s != nullptr, "golden scenario missing from registry");
    cache[which] = run_scenarios({*s}).front();
    done[which] = true;
  }
  return cache[which];
}

TEST(Runner, ResultsComeBackInInputOrder) {
  ThreadsOverride threads("4");
  const auto* a = find_scenario("smoke-digits-m0");
  const auto* b = find_scenario("smoke-fashion-salp-m1");
  ASSERT_TRUE(a != nullptr && b != nullptr);
  const auto results = run_scenarios({*b, *a});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scenario.name, b->name);
  EXPECT_EQ(results[1].scenario.name, a->name);
  EXPECT_GT(results[0].report.baseline_accuracy, 0.0);
}

class ThreadInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadInvariance, JsonAndDigestAreThreadCountInvariant) {
  // Every golden scenario — including both refresh-axis ones — must produce
  // byte-identical JSON and digests at 1 and 8 threads.
  const auto* s = find_scenario(kGoldenScenarios[GetParam()]);
  ASSERT_NE(s, nullptr);
  std::string json_1, json_8, digest_1, digest_8;
  {
    ThreadsOverride threads("1");
    const auto r = run_scenarios({*s});
    json_1 = to_json(r);
    digest_1 = digest(r.front());
  }
  {
    ThreadsOverride threads("8");
    const auto r = run_scenarios({*s});
    json_8 = to_json(r);
    digest_8 = digest(r.front());
  }
  EXPECT_EQ(json_1, json_8);    // byte-identical full report
  EXPECT_EQ(digest_1, digest_8);  // and digest
}

INSTANTIATE_TEST_SUITE_P(AllGoldenScenarios, ThreadInvariance,
                         ::testing::Range<std::size_t>(0u, kGoldenCount));

class BatchVsSolo : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchVsSolo, BatchRunIsByteIdenticalToSoloPipelineRuns) {
  // Differential determinism: run_scenarios on a BATCH must produce exactly
  // the results of running each scenario alone through core::run_pipeline —
  // each scenario is fully self-seeded, so batch fan-out, worker
  // scheduling, and neighbouring scenarios must not leak into any result.
  // Checked at 1 and 8 threads via byte-equal JSON and digests.
  const ThreadsOverride threads(GetParam());
  const auto* a = find_scenario("smoke-digits-m0");
  const auto* b = find_scenario("smoke-digits-deep");
  const auto* c = find_scenario("smoke-fashion-salp-m1-refresh");
  ASSERT_TRUE(a != nullptr && b != nullptr && c != nullptr);
  const std::vector<Scenario> batch_in{*a, *b, *c};

  const auto batch = run_scenarios(batch_in);
  ASSERT_EQ(batch.size(), batch_in.size());
  for (std::size_t i = 0; i < batch_in.size(); ++i) {
    ScenarioResult solo;
    solo.scenario = batch_in[i];
    solo.report = core::run_pipeline(batch_in[i].pipeline_config());
    EXPECT_EQ(digest(batch[i]), digest(solo)) << batch_in[i].name;
    EXPECT_EQ(to_json({batch[i]}), to_json({solo})) << batch_in[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BatchVsSolo,
                         ::testing::Values("1", "8"));

TEST(Runner, DigestEmitsLayerFieldsOnlyForDeepScenarios) {
  // Flat digests must not change shape (the checked-in goldens depend on
  // it); deep scenarios gain the layers=, layerN and per-voltage L<n>
  // lines, with per-layer BER_th and placement stats.
  const auto flat = digest(golden_result(0));
  EXPECT_EQ(flat.find("layers="), std::string::npos);
  EXPECT_EQ(flat.find("\nlayer0"), std::string::npos);
  const auto deep = digest(golden_result(4));
  EXPECT_NE(deep.find("layers=2\n"), std::string::npos);
  EXPECT_NE(deep.find("layer0 ber_th="), std::string::npos);
  EXPECT_NE(deep.find("layer1 ber_th="), std::string::npos);
  EXPECT_NE(deep.find("\n  L0 ber_th="), std::string::npos);
  EXPECT_NE(deep.find(" chunks="), std::string::npos);
}

TEST(Runner, DeepReportCarriesPerLayerStats) {
  const auto& r = golden_result(4);
  ASSERT_EQ(r.report.layer_ber_th.size(), 2u);
  ASSERT_EQ(r.report.layer_curves.size(), 2u);
  for (const auto& v : r.report.per_voltage) {
    ASSERT_EQ(v.layers.size(), 2u);
    double energy = 0.0;
    std::size_t retweak = 0;
    for (const auto& ls : v.layers) {
      EXPECT_GT(ls.chunks, 0u);
      energy += ls.energy_nj;
      retweak += ls.retention_weak_cells;
    }
    // Top-level accounting aggregates the per-layer slices.
    EXPECT_DOUBLE_EQ(energy, v.energy_nj);
    EXPECT_EQ(retweak, v.retention_weak_cells);
  }
  // The JSON carries the per-layer blocks for deep scenarios only.
  const auto json = to_json({r});
  EXPECT_NE(json.find("\"layer_tolerance\""), std::string::npos);
  EXPECT_NE(json.find("\"layers\""), std::string::npos);
  EXPECT_EQ(to_json({golden_result(0)}).find("\"layer_tolerance\""),
            std::string::npos);
}

TEST(Runner, DigestIsCompactAndLabelled) {
  const auto& r = golden_result(0);
  const auto d = digest(r);
  EXPECT_NE(d.find("scenario=smoke-digits-m0\n"), std::string::npos);
  EXPECT_NE(d.find("baseline_accuracy="), std::string::npos);
  EXPECT_NE(d.find("ber_th="), std::string::npos);
  // One v= line per voltage.
  std::size_t lines = 0;
  for (std::size_t pos = 0; (pos = d.find("\nv=", pos)) != std::string::npos;
       ++pos)
    ++lines;
  EXPECT_EQ(lines, r.report.per_voltage.size());
}

TEST(Runner, DigestEmitsRefreshFieldsOnlyForRefreshScenarios) {
  // Pre-refresh-axis digests must not change shape (the checked-in goldens
  // depend on it); refresh scenarios gain the refresh=, ref= and retweak=
  // fields.
  const auto legacy = digest(golden_result(0));
  EXPECT_EQ(legacy.find("refresh="), std::string::npos);
  EXPECT_EQ(legacy.find(" ref="), std::string::npos);
  const auto relaxed = digest(golden_result(3));
  EXPECT_NE(relaxed.find("refresh=32x\n"), std::string::npos);
  EXPECT_NE(relaxed.find(" ref="), std::string::npos);
  EXPECT_NE(relaxed.find(" retweak="), std::string::npos);
}

TEST(Runner, DigestEmitsEccFieldsOnlyForEccScenarios) {
  // Pre-ecc-axis digests must not change shape (the checked-in goldens
  // depend on it); ecc scenarios gain the ecc= header, the per-voltage
  // ecccw=/ecccorr=/eccdet= aggregates, and the per-layer E<n> lines.
  const auto legacy = digest(golden_result(0));
  EXPECT_EQ(legacy.find("ecc="), std::string::npos);
  EXPECT_EQ(legacy.find(" ecccw="), std::string::npos);
  EXPECT_EQ(legacy.find("\n  E0 "), std::string::npos);
  const auto ecc = digest(golden_result(5));
  EXPECT_NE(ecc.find("ecc=secded\n"), std::string::npos);
  EXPECT_NE(ecc.find(" ecccw="), std::string::npos);
  EXPECT_NE(ecc.find(" ecccorr="), std::string::npos);
  EXPECT_NE(ecc.find("\n  E0 scheme=secded(72,64)"), std::string::npos);
  EXPECT_NE(ecc.find(" decode_nj="), std::string::npos);

  // The JSON gains the scheme/counters block for ecc scenarios only.
  const auto json = to_json({golden_result(5)});
  EXPECT_NE(json.find("\"ecc_layers\""), std::string::npos);
  EXPECT_NE(json.find("\"ecc_corrected\""), std::string::npos);
  EXPECT_EQ(to_json({golden_result(0)}).find("\"ecc_layers\""),
            std::string::npos);
}

TEST(Runner, DigestEmitsKnobFieldsOnlyForKnobScenarios) {
  // Knob-free digests must not change shape (the checked-in goldens depend
  // on it); knob-search scenarios gain the K<n> per-layer operating-point
  // lines plus the Kuniform/Ktotal energy split.
  const auto legacy = digest(golden_result(0));
  EXPECT_EQ(legacy.find("\nK0 "), std::string::npos);
  EXPECT_EQ(legacy.find("\nKtotal "), std::string::npos);
  const auto knobs = digest(golden_result(7));
  EXPECT_NE(knobs.find("\nK0 v="), std::string::npos);
  EXPECT_NE(knobs.find("\nK1 v="), std::string::npos);
  EXPECT_NE(knobs.find(" raw="), std::string::npos);
  EXPECT_NE(knobs.find(" tol="), std::string::npos);
  EXPECT_NE(knobs.find(" floor="), std::string::npos);
  EXPECT_NE(knobs.find("\nKtotal energy_nj="), std::string::npos);

  // The JSON gains the layer_knobs block for knob scenarios only.
  const auto json = to_json({golden_result(7)});
  EXPECT_NE(json.find("\"layer_knobs\""), std::string::npos);
  EXPECT_NE(json.find("\"total_energy_nj\""), std::string::npos);
  EXPECT_NE(json.find("\"uniform_feasible\""), std::string::npos);
  EXPECT_EQ(to_json({golden_result(0)}).find("\"layer_knobs\""),
            std::string::npos);
}

TEST(Runner, KnobReportBeatsOrMatchesTheUniformBaseline) {
  // The acceptance criterion of the per-layer assignment: at the same
  // accuracy floor, the per-layer total can never exceed the best uniform
  // triple (each layer minimizes over a superset of the shared choice).
  const auto& r = golden_result(7);
  ASSERT_TRUE(r.report.layer_knobs.has_value());
  const auto& k = *r.report.layer_knobs;
  ASSERT_EQ(k.layers.size(), 2u);  // deep 2-layer smoke stack
  for (const auto& c : k.layers) {
    EXPECT_TRUE(c.meets_floor);
    EXPECT_LE(c.raw_ber, c.tolerable_ber);
  }
  ASSERT_TRUE(k.uniform_feasible);
  EXPECT_LE(k.total_energy_nj, k.uniform_energy_nj);
}

TEST(Runner, EccReportAggregatesThePerLayerScrubCounters) {
  const auto& r = golden_result(5);
  bool any_scrub = false;
  for (const auto& v : r.report.per_voltage) {
    ASSERT_EQ(v.layers.size(), 1u);  // flat smoke net
    std::uint64_t cw = 0, corr = 0, det = 0;
    for (const auto& ls : v.layers) {
      EXPECT_EQ(ls.ecc_scheme, "secded(72,64)");
      cw += ls.ecc_codewords;
      corr += ls.ecc_corrected;
      det += ls.ecc_detected;
    }
    EXPECT_EQ(cw, v.ecc_codewords);
    EXPECT_EQ(corr, v.ecc_corrected);
    EXPECT_EQ(det, v.ecc_detected);
    any_scrub = any_scrub || cw > 0;
  }
  // At the lowest voltages the module BER is high enough that the scrub
  // must actually have decoded dirty codewords.
  EXPECT_TRUE(any_scrub);
}

TEST(Runner, WallClockTimingsNeverReachJsonOrDigest) {
  // run_pipeline records host-dependent phase timings; they must stay out
  // of both machine-diffable serializations or every golden would flake.
  const auto& r = golden_result(0);
  EXPECT_GT(r.report.timings.total_ns, 0.0);
  EXPECT_EQ(to_json({r}).find("timing"), std::string::npos);
  EXPECT_EQ(digest(r).find("timing"), std::string::npos);
}

TEST(Runner, RejectsInvalidScenario) {
  Scenario bad = *find_scenario("smoke-digits-m0");
  bad.voltages.clear();
  EXPECT_THROW((void)run_scenarios({bad}), ContractViolation);
}

class GoldenReport : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenReport, DigestMatchesCheckedInGolden) {
  const auto& result = golden_result(GetParam());
  const auto fresh = digest(result);
  const auto path = golden_path(result.scenario.name);

  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << fresh;
    std::printf("[golden] updated %s\n", path.c_str());
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run scenario_test --update-golden and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), fresh)
      << "golden digest drift for " << result.scenario.name
      << ".\nIf this change is intentional, regenerate with\n"
         "  ./build/scenario_test --update-golden\nand commit the diff.";
}

INSTANTIATE_TEST_SUITE_P(AllGoldenScenarios, GoldenReport,
                         ::testing::Range<std::size_t>(0u, kGoldenCount));

}  // namespace
}  // namespace sparkxd::scenario

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--update-golden")
      sparkxd::scenario::g_update_golden = true;
  if (std::getenv("SPARKXD_UPDATE_GOLDEN") != nullptr)
    sparkxd::scenario::g_update_golden = true;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
