// sparkxd_run — scenario matrix CLI.
//
// Enumerates, filters, and executes the built-in evaluation scenarios
// (src/scenario) and serializes their PipelineReports to the stable JSON
// report format. The --digest output is the compact fixed-precision digest
// the golden-report regression harness locks down (tests/golden/), so CI can
// diff a fresh run against the checked-in digest.
//
//   sparkxd_run --list [--filter SUBSTR]
//   sparkxd_run --scenario NAME [--scenario NAME2 ...] [--threads N]
//               [--out report.json] [--digest]
//   sparkxd_run --filter smoke --threads 8 --out report.json
//   sparkxd_run --all
//   sparkxd_run --scenario NAME --export-artifact model.sxda
//
// --export-artifact additionally captures the serving artifact (trained
// model + operating point + frozen per-layer injection tables + placement)
// for sparkxd_serve; it requires exactly one selected scenario, with ECC
// off (an artifact carries no check words).
//
// Exit codes: 0 success, 2 bad usage / unknown scenario.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "error/ecc_scheme.hpp"
#include "scenario/matrix.hpp"
#include "scenario/runner.hpp"
#include "serve/artifact.hpp"

namespace {

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sparkxd_run [options]\n"
      "  --list             list matching scenarios and exit\n"
      "  --scenario NAME    run this scenario (repeatable, exact name)\n"
      "  --filter SUBSTR    select scenarios whose name contains SUBSTR\n"
      "  --all              select every built-in scenario\n"
      "  --refresh SPEC     override the refresh policy of every selected\n"
      "                     scenario: off, nominal, or a multiplier in\n"
      "                     [1, 1024] like 8x\n"
      "                     (renames them with a -ref* suffix)\n"
      "  --layers SPEC      override the layer stack of every selected\n"
      "                     scenario: 'flat' (single layer) or hidden sizes\n"
      "                     like 64 or 64,32 (renames them with a -l*\n"
      "                     suffix)\n"
      "  --ecc SPEC         override the ECC scheme of every selected\n"
      "                     scenario: off, parity, secded, hsiao, or bch,\n"
      "                     optionally with a codeword payload size like\n"
      "                     bch:4096 (renames them with a -ecc-* suffix)\n"
      "  --engine SPEC      override the inference accumulator of every\n"
      "                     selected scenario: event (the default float\n"
      "                     mode, bit-exact reference) or event-fx\n"
      "                     (fixed-point drive); renames them with a\n"
      "                     -eng-* suffix\n"
      "  --layer-knobs      run the per-layer (voltage x refresh x ECC)\n"
      "                     operating-point search on every selected\n"
      "                     scenario (renames them with a -knobs suffix)\n"
      "  --threads N        worker threads, 1..256 (sets SPARKXD_THREADS)\n"
      "  --out FILE         write the JSON report to FILE ('-' = stdout)\n"
      "  --export-artifact FILE\n"
      "                     also save the serving artifact (for\n"
      "                     sparkxd_serve) to FILE; needs exactly one\n"
      "                     selected scenario, with ECC off\n"
      "  --artifact-voltage V\n"
      "                     capture the artifact at supply voltage V (must\n"
      "                     be on the scenario's grid; default: the lowest)\n"
      "  --digest           print golden digests of the results to stdout\n"
      "                     (mutually exclusive with --out -)\n"
      "  --timings          print per-phase wall-clock timings to stderr\n"
      "                     (never part of the JSON report or digests)\n"
      "  --help             this message\n"
      "\nWith no selection option, --list shows every scenario; running\n"
      "requires an explicit --scenario/--filter/--all selection.\n");
}

/// Compact layer-stack label: "1" for the flat network, else
/// "<depth>:<hidden sizes>", e.g. "3:64-48".
std::string layers_label(const sparkxd::scenario::Scenario& s) {
  const auto& hidden = s.network.hidden_neurons;
  if (hidden.empty()) return "1";
  std::string out = std::to_string(hidden.size() + 1) + ":";
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (i != 0) out += "-";
    out += std::to_string(hidden[i]);
  }
  return out;
}

void list_scenarios(const std::vector<sparkxd::scenario::Scenario>& all) {
  std::printf("%-36s %-13s %8s %-8s %6s %-10s %-6s %-7s %-9s %s\n", "name",
              "task", "neurons", "layers", "volts", "geometry", "model",
              "refresh", "ecc", "description");
  for (const auto& s : all) {
    std::printf("%-36s %-13s %8zu %-8s %6zu %-10s %-6s %-7s %-9s %s\n",
                s.name.c_str(), sparkxd::data::to_string(s.task),
                s.network.n_neurons, layers_label(s).c_str(), s.voltages.size(),
                s.salp ? "salp" : "commodity",
                sparkxd::scenario::model_label(s.error_model.kind),
                sparkxd::scenario::refresh_label(s.refresh).c_str(),
                sparkxd::error::ecc_label(s.ecc).c_str(),
                s.description.c_str());
  }
}

/// Parses a --refresh SPEC: "off", "nominal", or "<digits>[.<digits>][x]"
/// with a multiplier in [1, 1024]. Exits with usage code 2 on anything else.
sparkxd::dram::RefreshPolicy parse_refresh_spec(const std::string& spec) {
  using sparkxd::dram::RefreshPolicy;
  if (spec == "off" || spec == "disabled") return RefreshPolicy::disabled();
  if (spec == "nominal" || spec == "1x") return RefreshPolicy::nominal();
  std::string_view num = spec;
  if (num.ends_with('x')) num.remove_suffix(1);
  // Fixed-format from_chars reads no exponent, hex or space; a digit at
  // each end rules out a sign, "inf", "nan" and a leading or trailing dot.
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  double mult = 0.0;
  const char* last = num.data() + num.size();
  if (num.empty() || !digit(num.front()) || !digit(num.back()) ||
      std::from_chars(num.data(), last, mult, std::chars_format::fixed).ptr !=
          last)
    mult = 0.0;
  if (mult < 1.0 || mult > sparkxd::dram::kMaxRefreshMultiplier) {
    std::fprintf(stderr,
                 "sparkxd_run: --refresh wants off, nominal, or a "
                 "multiplier in [1, 1024] like 8x or 8.5x (got '%s')\n",
                 spec.c_str());
    std::exit(2);
  }
  return mult == 1.0 ? RefreshPolicy::nominal() : RefreshPolicy::reduced(mult);
}

/// Scenario-name-safe form of a refresh label ("8.5x" -> "8p5x").
std::string refresh_suffix(const sparkxd::dram::RefreshPolicy& policy) {
  std::string label = "-ref" + sparkxd::scenario::refresh_label(policy);
  for (auto& c : label)
    if (c == '.') c = 'p';
  return label;
}

/// Parses a --layers SPEC: "flat" (clear the hidden stack) or a comma list
/// of positive hidden sizes like "64" or "64,32". Exits with usage code 2
/// on anything else.
std::vector<std::size_t> parse_layers_spec(const std::string& spec) {
  // A hidden layer bigger than this is a typo, not a workload.
  constexpr long long kMaxHidden = 1 << 20;
  std::vector<std::size_t> hidden;
  if (spec == "flat") return hidden;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string part = spec.substr(pos, comma - pos);
    const auto n = sparkxd::cli::parse_int(part.c_str(), 1, kMaxHidden);
    if (!n) {
      std::fprintf(stderr,
                   "sparkxd_run: --layers wants 'flat' or a comma list of "
                   "positive hidden sizes like 64,32 (got '%s')\n",
                   spec.c_str());
      std::exit(2);
    }
    hidden.push_back(static_cast<std::size_t>(*n));
    pos = comma + 1;
  }
  return hidden;
}

/// Parses an --ecc SPEC: "off" or a scheme name (parity/secded/hsiao/bch),
/// optionally with a ":<data_bits>" codeword payload size like "bch:4096".
/// Exits with usage code 2 on anything else (including sizes the scheme
/// rejects, e.g. secded with data_bits != 64).
sparkxd::error::EccSpec parse_ecc_spec(const std::string& spec) {
  using sparkxd::error::EccKind;
  sparkxd::error::EccSpec out;
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const auto fail = [&](const char* why) {
    std::fprintf(stderr,
                 "sparkxd_run: --ecc wants off, parity, secded, hsiao, or "
                 "bch, optionally with a payload size like bch:4096 "
                 "(got '%s': %s)\n",
                 spec.c_str(), why);
    std::exit(2);
  };
  if (kind == "off" || kind == "none") {
    if (colon != std::string::npos) fail("'off' takes no payload size");
    return out;
  } else if (kind == "parity") {
    out.kind = EccKind::kParity;
  } else if (kind == "secded") {
    out.kind = EccKind::kSecded;
  } else if (kind == "hsiao") {
    out.kind = EccKind::kHsiao;
  } else if (kind == "bch") {
    out.kind = EccKind::kBch;
  } else {
    fail("unknown scheme");
  }
  if (colon != std::string::npos) {
    const auto bits =
        sparkxd::cli::parse_int(spec.substr(colon + 1).c_str(), 1,
                                std::numeric_limits<long long>::max());
    if (!bits) fail("payload size is not a positive bit count");
    out.data_bits = static_cast<std::size_t>(*bits);
  }
  try {
    out.validate();
  } catch (const sparkxd::ContractViolation& e) {
    fail(e.what());
  }
  return out;
}

/// Scenario-name-safe suffix of an --ecc override ("-ecc-none",
/// "-ecc-bch4096b").
std::string ecc_suffix(const sparkxd::error::EccSpec& spec) {
  return "-ecc-" + sparkxd::error::ecc_label(spec);
}

/// Parses an --engine SPEC: event or event-fx. Exits with usage code 2 on
/// anything else.
sparkxd::snn::EngineKind parse_engine_spec(const std::string& spec) {
  using sparkxd::snn::EngineKind;
  if (spec == "event") return EngineKind::kEvent;
  if (spec == "event-fx" || spec == "eventfx") return EngineKind::kEventFx;
  std::fprintf(stderr,
               "sparkxd_run: --engine wants event or event-fx (got '%s')\n",
               spec.c_str());
  std::exit(2);
}

/// Scenario-name-safe suffix of an --engine override ("-eng-event").
std::string engine_suffix(sparkxd::snn::EngineKind engine) {
  return std::string("-eng-") + sparkxd::snn::to_string(engine);
}

/// Scenario-name-safe suffix of a --layers override ("-lflat", "-l64-32").
std::string layers_suffix(const std::vector<std::size_t>& hidden) {
  if (hidden.empty()) return "-lflat";
  std::string label = "-l";
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    if (i != 0) label += "-";
    label += std::to_string(hidden[i]);
  }
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparkxd;

  bool list = false, all = false, want_digest = false, want_timings = false;
  std::vector<std::string> names;
  std::vector<std::string> filters;
  std::string out_path;
  std::string artifact_path;
  bool have_artifact_voltage = false;
  double artifact_voltage = 0.0;
  std::optional<dram::RefreshPolicy> refresh_override;
  std::optional<std::vector<std::size_t>> layers_override;
  std::optional<error::EccSpec> ecc_override;
  std::optional<snn::EngineKind> engine_override;
  bool enable_layer_knobs = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sparkxd_run: %s needs an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--digest") {
      want_digest = true;
    } else if (arg == "--timings") {
      want_timings = true;
    } else if (arg == "--scenario") {
      names.emplace_back(next("--scenario"));
    } else if (arg == "--filter") {
      filters.emplace_back(next("--filter"));
    } else if (arg == "--refresh") {
      refresh_override = parse_refresh_spec(next("--refresh"));
    } else if (arg == "--layers") {
      layers_override = parse_layers_spec(next("--layers"));
    } else if (arg == "--ecc") {
      ecc_override = parse_ecc_spec(next("--ecc"));
    } else if (arg == "--engine") {
      engine_override = parse_engine_spec(next("--engine"));
    } else if (arg == "--layer-knobs") {
      enable_layer_knobs = true;
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--export-artifact") {
      artifact_path = next("--export-artifact");
    } else if (arg == "--artifact-voltage") {
      const char* spec = next("--artifact-voltage");
      char* end = nullptr;
      artifact_voltage = std::strtod(spec, &end);
      if (end == spec || *end != '\0' || !std::isfinite(artifact_voltage) ||
          artifact_voltage <= 0.0) {
        std::fprintf(stderr,
                     "sparkxd_run: --artifact-voltage wants a positive "
                     "voltage like 1.025 (got '%s')\n",
                     spec);
        return 2;
      }
      have_artifact_voltage = true;
    } else if (arg == "--threads") {
      const long long n = cli::parse_count(
          "sparkxd_run", "--threads", next("--threads"), 1,
          static_cast<long long>(kMaxThreads));
      ::setenv("SPARKXD_THREADS", std::to_string(n).c_str(), 1);
    } else {
      std::fprintf(stderr, "sparkxd_run: unknown option '%s'\n",
                   std::string(arg).c_str());
      print_usage(stderr);
      return 2;
    }
  }

  if (want_digest && out_path == "-") {
    std::fprintf(stderr,
                 "sparkxd_run: --digest and --out - both write stdout and "
                 "would interleave; write the report to a file instead\n");
    return 2;
  }

  // --- Selection. ----------------------------------------------------------
  std::vector<scenario::Scenario> selected;
  const auto add_unique = [&](const scenario::Scenario& s) {
    for (const auto& have : selected)
      if (have.name == s.name) return;
    selected.push_back(s);
  };
  if (all) {
    for (const auto& s : scenario::builtin_scenarios()) add_unique(s);
  }
  for (const auto& name : names) {
    const auto* s = scenario::find_scenario(name);
    if (s == nullptr) {
      std::fprintf(stderr,
                   "sparkxd_run: unknown scenario '%s' (see --list)\n",
                   name.c_str());
      return 2;
    }
    add_unique(*s);
  }
  for (const auto& f : filters) {
    const auto matches = scenario::match_scenarios(f);
    if (matches.empty()) {
      std::fprintf(stderr, "sparkxd_run: --filter '%s' matches nothing\n",
                   f.c_str());
      return 2;
    }
    for (const auto& s : matches) add_unique(s);
  }

  // --refresh / --layers rewrite every selected scenario onto the requested
  // policy/stack; the -ref* / -l* name suffixes keep overridden results
  // distinguishable from the built-ins (and their golden digests) in any
  // downstream diff.
  const auto apply_overrides =
      [&](std::vector<scenario::Scenario>& scenarios) {
        for (auto& s : scenarios) {
          if (refresh_override) {
            s.refresh = *refresh_override;
            s.name += refresh_suffix(*refresh_override);
            s.description += " [refresh override]";
          }
          if (layers_override) {
            s.network.hidden_neurons = *layers_override;
            s.name += layers_suffix(*layers_override);
            s.description += " [layers override]";
          }
          if (ecc_override) {
            s.ecc = *ecc_override;
            s.name += ecc_suffix(*ecc_override);
            s.description += " [ecc override]";
          }
          if (engine_override) {
            s.network.engine = *engine_override;
            s.name += engine_suffix(*engine_override);
            s.description += " [engine override]";
          }
          if (enable_layer_knobs) {
            s.layer_knobs.enabled = true;
            s.name += "-knobs";
            s.description += " [layer-knobs override]";
          }
        }
      };

  if (list) {
    // With no selection, --list browses every built-in — still honouring a
    // --refresh override so the listing shows what a run would execute.
    auto shown = selected.empty() ? scenario::builtin_scenarios() : selected;
    apply_overrides(shown);
    list_scenarios(shown);
    return 0;
  }
  apply_overrides(selected);
  if (selected.empty()) {
    std::fprintf(stderr,
                 "sparkxd_run: nothing selected — use --scenario, --filter, "
                 "or --all (or --list to browse)\n");
    return 2;
  }
  if (!artifact_path.empty() && selected.size() != 1) {
    std::fprintf(stderr,
                 "sparkxd_run: --export-artifact captures one operating "
                 "point and needs exactly one selected scenario (got %zu)\n",
                 selected.size());
    return 2;
  }

  // --- Run. ----------------------------------------------------------------
  // Human-readable progress goes to stderr so --digest / --out - stdout
  // output stays machine-diffable.
  std::fprintf(stderr, "running %zu scenario(s) with %zu thread(s)\n",
               selected.size(), thread_count());
  std::vector<scenario::ScenarioResult> results;
  if (!artifact_path.empty()) {
    // Artifact export runs the pipeline directly so it can pass the capture
    // hook; the report (and thus --out/--digest) is bit-identical to the
    // run_scenarios path.
    const auto& s = selected.front();
    const auto cfg = s.pipeline_config();
    if (cfg.ecc.enabled()) {
      std::fprintf(stderr,
                   "sparkxd_run: scenario '%s' enables ECC; a serving "
                   "artifact carries no check words, so it cannot be "
                   "exported\n",
                   s.name.c_str());
      return 2;
    }
    core::ArtifactState state;
    if (have_artifact_voltage) {
      for (std::size_t vi = 0; vi < cfg.voltages.size(); ++vi)
        if (std::fabs(cfg.voltages[vi] - artifact_voltage) < 1e-9)
          state.voltage_index = vi;
      if (state.voltage_index == core::ArtifactState::npos) {
        std::fprintf(stderr,
                     "sparkxd_run: --artifact-voltage %.4f is not on the "
                     "voltage grid of scenario '%s'\n",
                     artifact_voltage, s.name.c_str());
        return 2;
      }
    }
    results.push_back({s, core::run_pipeline(cfg, &state)});
    const auto artifact = serve::make_artifact(s.name, std::move(state));
    serve::save_artifact(artifact, artifact_path);
    std::fprintf(stderr,
                 "wrote serving artifact '%s' (V=%.4f, module BER=%.3e)\n",
                 artifact_path.c_str(), artifact.v_supply,
                 artifact.module_ber);
  } else {
    results = scenario::run_scenarios(selected);
  }
  for (const auto& r : results) {
    const auto& low = r.report.per_voltage.back();
    std::fprintf(stderr,
                 "  %-28s baseline=%.3f improved=%.3f ber_th=%.1e "
                 "saving@%.3fV=%.1f%% speedup=%.2fx\n",
                 r.scenario.name.c_str(), r.report.baseline_accuracy,
                 r.report.improved_accuracy, r.report.ber_th, low.v_supply,
                 low.saving_pct, low.speedup);
  }
  if (want_timings) {
    // Wall-clock phase breakdown; stderr only — host-dependent numbers must
    // never reach the machine-diffable JSON/digest streams.
    std::fprintf(stderr, "phase timings [ms]:\n");
    std::fprintf(stderr, "  %-28s %10s %16s %10s %10s\n", "scenario", "train",
                 "fault_training", "sweep", "total");
    for (const auto& r : results) {
      const auto& t = r.report.timings;
      std::fprintf(stderr, "  %-28s %10.1f %16.1f %10.1f %10.1f\n",
                   r.scenario.name.c_str(), t.train_ns / 1e6,
                   t.fault_training_ns / 1e6, t.sweep_ns / 1e6,
                   t.total_ns / 1e6);
    }
  }

  // --- Serialize. ----------------------------------------------------------
  if (!out_path.empty()) {
    const std::string doc = scenario::to_json(results);
    if (out_path == "-") {
      std::fwrite(doc.data(), 1, doc.size(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "sparkxd_run: cannot open '%s'\n",
                     out_path.c_str());
        return 2;
      }
      out << doc;
      out.close();
      if (!out) {
        std::fprintf(stderr, "sparkxd_run: write to '%s' failed\n",
                     out_path.c_str());
        return 2;
      }
    }
  }
  if (want_digest) {
    for (const auto& r : results) std::fputs(scenario::digest(r).c_str(), stdout);
  }
  return 0;
}
