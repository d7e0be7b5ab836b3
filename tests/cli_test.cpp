// CLI contract tests for sparkxd_run and sparkxd_replay: bad usage must
// exit 2 with a clear stderr message, --help must exit 0, a replay that
// served nothing must exit 1. These run the real binaries (paths baked in
// via SPARKXD_RUN_BIN / SPARKXD_REPLAY_BIN) so the exit codes scripts and
// CI depend on are pinned by a test, not convention.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, merged
};

RunResult run_binary(const char* bin, const std::string& args) {
  const std::string cmd = std::string(bin) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    result.output.append(buf, n);
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult run_cli(const std::string& args) {
  return run_binary(SPARKXD_RUN_BIN, args);
}

/// `s` as one single-quoted shell word.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// A loopback port that was just bound and released — nothing listens on
/// it, so connections are refused (modulo an unlucky reuse race).
int dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(CliTest, UnknownScenarioExitsTwoWithMessage) {
  const auto r = run_cli("--scenario no-such-scenario-xyz");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown scenario 'no-such-scenario-xyz'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("--list"), std::string::npos) << r.output;
}

TEST(CliTest, NoSelectionExitsTwo) {
  const auto r = run_cli("--digest");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("nothing selected"), std::string::npos) << r.output;
}

TEST(CliTest, BadRefreshSpecExitsTwo) {
  // Only <digits>[.<digits>][x] in [1, 1024]: no hex, exponent, sign or
  // whitespace, and no multiplier past the retention model's range.
  for (const char* spec :
       {"bogus", "0x10", " 8x", "1e1x", "-8x", "8.x", ".5x", "0.5x", "2000x",
        "1024.5x", "19999999999999999999999999x"}) {
    const auto r = run_cli("--scenario smoke-digits-m0 --refresh " +
                           shell_quote(spec));
    EXPECT_EQ(r.exit_code, 2) << spec;
    EXPECT_NE(r.output.find("--refresh"), std::string::npos) << r.output;
  }
  // The edges of the range still parse.
  for (const char* spec : {"1024x", "1.5", "8.25x"}) {
    const auto r = run_cli(std::string("--list --scenario smoke-digits-m0 "
                                       "--refresh ") + spec);
    EXPECT_EQ(r.exit_code, 0) << spec << ": " << r.output;
  }
}

TEST(CliTest, BadEccSpecExitsTwo) {
  const auto r = run_cli("--scenario smoke-digits-m0 --ecc bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--ecc"), std::string::npos) << r.output;
  // An infeasible shape (secded is the fixed 72,64 code) is rejected by the
  // spec validation, same exit code.
  const auto shape = run_cli("--scenario smoke-digits-m0 --ecc secded:128");
  EXPECT_EQ(shape.exit_code, 2);
  EXPECT_NE(shape.output.find("--ecc"), std::string::npos) << shape.output;
}

TEST(CliTest, BadEngineSpecExitsTwo) {
  // One float mode, one label: `dense` is no longer a spelling of it.
  for (const char* spec : {"dense", "bogus"}) {
    const auto r = run_cli(std::string("--scenario smoke-digits-m0 --engine ") +
                           spec);
    EXPECT_EQ(r.exit_code, 2) << spec;
    EXPECT_NE(r.output.find("--engine wants event or event-fx"),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, EccOverrideRenamesAndShowsInList) {
  const auto r = run_cli("--list --scenario smoke-digits-m0 --ecc bch:4096");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("smoke-digits-m0-ecc-bch4096b"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[ecc override]"), std::string::npos) << r.output;
}

TEST(CliTest, UnknownOptionExitsTwo) {
  const auto r = run_cli("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option"), std::string::npos) << r.output;
}

TEST(CliTest, ExportArtifactNeedsExactlyOneScenario) {
  const auto r = run_cli(
      "--scenario smoke-digits-m0 --scenario smoke-fashion-salp-m1 "
      "--export-artifact /tmp/cli_test_never_written.sxda");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("exactly one selected scenario"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, ExportArtifactRejectsEccScenario) {
  // An artifact carries no check words, so an ECC operating point would be
  // served unprotected: refused before the pipeline runs, nothing written.
  const std::string path = "/tmp/cli_test_ecc_never_written.sxda";
  std::remove(path.c_str());
  for (const char* selection :
       {"--scenario smoke-digits-ecc",
        "--scenario smoke-digits-m0 --ecc secded"}) {
    const auto r = run_cli(std::string(selection) + " --export-artifact " +
                           path);
    EXPECT_EQ(r.exit_code, 2) << selection;
    EXPECT_NE(r.output.find("enables ECC"), std::string::npos) << r.output;
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << selection;
  }
}

TEST(CliTest, BadArtifactVoltageExitsTwo) {
  const auto r = run_cli(
      "--scenario smoke-digits-m0 --export-artifact "
      "/tmp/cli_test_never_written.sxda --artifact-voltage nope");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--artifact-voltage"), std::string::npos)
      << r.output;
}

TEST(CliTest, HelpExitsZero) {
  const auto r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage: sparkxd_run"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("--export-artifact"), std::string::npos)
      << r.output;
}

TEST(CliTest, ListExitsZeroAndNamesGoldenScenarios) {
  const auto r = run_cli("--list");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("smoke-digits-m0"), std::string::npos) << r.output;
}

TEST(CliTest, LayerKnobsOverrideRenamesAndShowsInList) {
  const auto r = run_cli("--list --scenario smoke-digits-m0 --layer-knobs");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("smoke-digits-m0-knobs"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[layer-knobs override]"), std::string::npos)
      << r.output;
}

// --threads used to go through atoll: "4x" ran 4 threads, "1e9" ran one,
// and counts past 256 were clamped silently. --list starts no workers, so
// a parse that wrongly succeeded would still exit 0 here.
TEST(CliTest, BadThreadCountsExitTwo) {
  for (const char* bad : {"4x", "0", "257", "1e9", "-3", ""}) {
    const auto r =
        run_cli(std::string("--list --threads '") + bad + "'");
    EXPECT_EQ(r.exit_code, 2) << "--threads '" << bad << "': " << r.output;
    EXPECT_NE(r.output.find("--threads wants an integer in [1, 256]"),
              std::string::npos)
        << r.output;
  }
  EXPECT_EQ(run_cli("--list --threads 256").exit_code, 0);
}

TEST(CliTest, BadLayersSpecsExitTwo) {
  for (const char* bad : {"0", "64,", "x", ",64", "64,,32", "-1"}) {
    const auto r = run_cli(std::string("--list --scenario smoke-digits-m0 "
                                       "--layers '") +
                           bad + "'");
    EXPECT_EQ(r.exit_code, 2) << "--layers '" << bad << "': " << r.output;
    EXPECT_NE(r.output.find("--layers wants 'flat' or a comma list"),
              std::string::npos)
        << r.output;
  }
  const auto ok =
      run_cli("--list --scenario smoke-digits-m0 --layers 64,32");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("smoke-digits-m0-l64-32"), std::string::npos)
      << ok.output;
}

/// `s` with one to three seeded edits: insert, delete or replace a byte
/// (printable or not), repeat a slice, append a 25-digit run, or splice in
/// the tail of another seed string.
std::string mutate(std::string s, const std::vector<std::string>& seeds,
                   std::mt19937_64& gen) {
  static const std::string alphabet =
      "0123456789abcdefxXkKmM:,.-+ _=;/\\%'\"\t\x01\x7f\xc3\xff";
  const auto pick = [&gen](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(gen() % n);
  };
  for (std::size_t k = 1 + pick(3); k > 0; --k) {
    const std::size_t at = pick(s.size() + 1);
    switch (pick(6)) {
      case 0:
        s.insert(at, 1, alphabet[pick(alphabet.size())]);
        break;
      case 1:
        if (at < s.size()) s.erase(at, 1);
        break;
      case 2:
        if (at < s.size()) s[at] = alphabet[pick(alphabet.size())];
        break;
      case 3:
        s.insert(at, s.substr(at, 1 + pick(4)));
        break;
      case 4:
        s.insert(at, std::string(25, '9'));
        break;
      default: {
        const std::string& other = seeds[pick(seeds.size())];
        s = s.substr(0, at) + other.substr(pick(other.size() + 1));
      }
    }
  }
  return s;
}

// Seeded fuzzing of the spec-string parsers: mutated --ecc, --refresh and
// --layers values, each run through --list (which parses every flag but
// runs no pipeline). A spec either parses (exit 0) or is refused as bad
// usage (exit 2); a crash, an uncaught exception or any other code fails.
TEST(CliTest, MutatedSpecStringsExitZeroOrTwo) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> flags{
      {"--ecc",
       {"off", "parity", "secded", "hsiao", "bch", "bch:512", "bch:4096"}},
      {"--refresh", {"off", "nominal", "1x", "8x", "32x"}},
      {"--layers", {"flat", "64", "64,32", "48,32,16"}},
  };
  std::mt19937_64 gen(20261019);
  for (const auto& [flag, seeds] : flags) {
    int parsed = 0;
    for (int i = 0; i < 40; ++i) {
      const std::string spec =
          mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], seeds, gen);
      const auto r = run_cli("--list --scenario smoke-digits-m0 " + flag +
                             " " + shell_quote(spec));
      EXPECT_TRUE(r.exit_code == 0 || r.exit_code == 2)
          << flag << " " << shell_quote(spec) << " exited " << r.exit_code
          << ": " << r.output;
      parsed += r.exit_code == 0;
    }
    // The mutations stay near valid specs: some must still parse, and
    // most must not.
    EXPECT_GT(parsed, 0) << flag;
    EXPECT_LT(parsed, 40) << flag;
  }
}

// Regression: serve::percentile used to return 0 on an empty sample, so a
// replay that served nothing reported "p99=0us" and exited 0 — a fully
// faulted run read as infinitely fast in the CI trend. A zero-served replay
// must now fail loudly before any percentile is computed.
TEST(CliTest, ReplayZeroServedExitsNonZero) {
  const auto r = run_binary(
      SPARKXD_REPLAY_BIN,
      "--port " + std::to_string(dead_port()) +
          " --requests 2 --allow-partial");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("zero replies"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("p99=0"), std::string::npos) << r.output;
}

}  // namespace
