// Tests for the per-layer (voltage x refresh x ECC) operating-point search:
// determinism (thread count, candidate-enumeration order), the accuracy-floor
// property every chosen triple must satisfy, the honest fallback when no
// candidate is feasible, and a bit-exact report pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "core/layer_knobs.hpp"
#include "energy/ber_model.hpp"
#include "error/retention.hpp"
#include "error/subarray_profile.hpp"
#include "test_env_util.hpp"

namespace sparkxd::core {
namespace {

/// The search's refresh-interval ladder, in units of tREFI.
constexpr std::array<double, 4> kRefreshLadder = {1.0, 2.0, 4.0, 8.0};

/// A small two-layer search problem with generous tolerances, so both the
/// per-layer choices and the uniform baseline are feasible.
struct SearchSetup {
  dram::Geometry geometry = dram::Geometry::lpddr3_4gb();
  error::SubarrayProfile profile{geometry, 42};
  LayerKnobsConfig cfg;
  LayerKnobsInputs in;

  SearchSetup() {
    cfg.enabled = true;
    in.geometry = geometry;
    in.profile = &profile;
    in.voltages = {1.325, 1.175, 1.025};
    in.ecc = {error::EccKind::kSecded, 64};
    in.layer_ber_th = {1e-3, 2e-4};
    in.layer_met_target = {true, true};
    in.layer_weights = {600, 300};
    in.salp = false;
    in.seed = 42;
  }
};

void expect_identical(const LayerKnobsReport& a, const LayerKnobsReport& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const auto& x = a.layers[l];
    const auto& y = b.layers[l];
    EXPECT_EQ(x.v_supply, y.v_supply) << "layer " << l;
    EXPECT_EQ(x.refresh_multiplier, y.refresh_multiplier) << "layer " << l;
    EXPECT_EQ(x.ecc_scheme, y.ecc_scheme) << "layer " << l;
    EXPECT_EQ(x.raw_ber, y.raw_ber) << "layer " << l;
    EXPECT_EQ(x.tolerable_ber, y.tolerable_ber) << "layer " << l;
    EXPECT_EQ(x.energy_nj, y.energy_nj) << "layer " << l;
    EXPECT_EQ(x.meets_floor, y.meets_floor) << "layer " << l;
    EXPECT_EQ(x.retention_weak_cells, y.retention_weak_cells) << "layer " << l;
  }
  EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
  EXPECT_EQ(a.uniform_feasible, b.uniform_feasible);
  EXPECT_EQ(a.uniform_energy_nj, b.uniform_energy_nj);
  EXPECT_EQ(a.uniform.v_supply, b.uniform.v_supply);
  EXPECT_EQ(a.uniform.refresh_multiplier, b.uniform.refresh_multiplier);
  EXPECT_EQ(a.uniform.ecc_scheme, b.uniform.ecc_scheme);
}

TEST(LayerKnobs, EveryChosenTripleMeetsTheFloorItWasSelectedUnder) {
  SearchSetup s;
  const auto report = assign_layer_knobs(s.cfg, s.in);
  const energy::BerModel ber_model;
  ASSERT_EQ(report.layers.size(), s.in.layer_weights.size());
  for (std::size_t l = 0; l < report.layers.size(); ++l) {
    const auto& c = report.layers[l];
    EXPECT_TRUE(c.meets_floor) << "layer " << l;
    EXPECT_LE(c.raw_ber, c.tolerable_ber) << "layer " << l;
    // The recorded raw BER is the voltage BER composed with the retention
    // failure probability of the chosen cadence — recompute it.
    error::RetentionSpec ret = s.in.error_model.retention;
    ret.enabled = true;
    ret.interval_multiplier = c.refresh_multiplier;
    const double p_v = ber_model.ber(c.v_supply);
    const double p_ret = error::retention_fail_probability(ret, 1.0);
    EXPECT_NEAR(c.raw_ber, 1.0 - (1.0 - p_v) * (1.0 - p_ret), 1e-15)
        << "layer " << l;
    EXPECT_GT(c.energy_nj, 0.0) << "layer " << l;
    // The chosen knobs come from the candidate axes.
    EXPECT_NE(std::find(s.in.voltages.begin(), s.in.voltages.end(),
                        c.v_supply),
              s.in.voltages.end());
    EXPECT_NE(std::find(kRefreshLadder.begin(), kRefreshLadder.end(),
                        c.refresh_multiplier),
              kRefreshLadder.end());
  }
  // The per-layer assignment minimizes over a superset of any uniform
  // triple, so its total can never exceed the uniform baseline.
  ASSERT_TRUE(report.uniform_feasible);
  EXPECT_LE(report.total_energy_nj, report.uniform_energy_nj);
  EXPECT_GT(report.uniform_energy_nj, 0.0);
}

TEST(LayerKnobs, ResultIsThreadCountInvariant) {
  SearchSetup s;
  LayerKnobsReport serial, parallel8;
  {
    testutil::ThreadsOverride threads("1");
    serial = assign_layer_knobs(s.cfg, s.in);
  }
  {
    testutil::ThreadsOverride threads("8");
    parallel8 = assign_layer_knobs(s.cfg, s.in);
  }
  expect_identical(serial, parallel8);
}

TEST(LayerKnobs, ResultIsInvariantToCandidateEnumerationOrder) {
  // The winner is chosen by a value-based order (energy, then higher
  // voltage, then lower multiplier, then weaker code), so permuting the
  // voltage grid — which permutes the candidate enumeration — must not
  // change any chosen triple bit for bit.
  SearchSetup s;
  const auto forward = assign_layer_knobs(s.cfg, s.in);
  SearchSetup r;
  std::reverse(r.in.voltages.begin(), r.in.voltages.end());
  const auto reversed = assign_layer_knobs(r.cfg, r.in);
  expect_identical(forward, reversed);
}

TEST(LayerKnobs, InfeasibleLayerFallsBackToSafestTripleHonestly) {
  SearchSetup s;
  // Layer 1's tolerance was never met: no candidate may claim the floor.
  s.in.layer_met_target = {true, false};
  s.in.layer_ber_th = {1e-3, 0.0};
  const auto report = assign_layer_knobs(s.cfg, s.in);
  ASSERT_EQ(report.layers.size(), 2u);
  EXPECT_TRUE(report.layers[0].meets_floor);
  const auto& fallback = report.layers[1];
  EXPECT_FALSE(fallback.meets_floor);
  // Safest triple: first grid voltage (the highest), datasheet-closest
  // cadence, strongest rung of the escalation ladder.
  EXPECT_EQ(fallback.v_supply, s.in.voltages.front());
  EXPECT_EQ(fallback.refresh_multiplier, kRefreshLadder.front());
  const auto ladder = error::ecc_escalation_ladder(s.in.ecc);
  EXPECT_EQ(fallback.ecc, ladder.back());
  // One infeasible layer makes every uniform triple infeasible too.
  EXPECT_FALSE(report.uniform_feasible);
}

// ------------------------------------------------------------ report pin
// The digest below was recorded from the search that priced each candidate
// through a one-region RefreshRegions controller plan. Any change to a
// chosen triple, a candidate energy or a weak-cell count moves it.

/// FNV-1a 64 over the little-endian bytes of `v`, folded into `h`.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

void fnv_fold(std::uint64_t& h, double v) {
  fnv_fold(h, std::bit_cast<std::uint64_t>(v));
}

/// Folds every field of one choice, bit patterns for the doubles.
void fold_choice(std::uint64_t& h, const LayerKnobChoice& c) {
  fnv_fold(h, c.v_supply);
  fnv_fold(h, c.module_ber);
  fnv_fold(h, c.refresh_multiplier);
  fnv_fold(h, static_cast<std::uint64_t>(c.ecc.kind));
  fnv_fold(h, std::uint64_t{c.ecc.data_bits});
  fnv_fold(h, std::uint64_t{0});  // was EccSpec::check_bits, always 0
  for (const char ch : c.ecc_scheme)
    fnv_fold(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  fnv_fold(h, c.ecc_scheme.size());
  fnv_fold(h, c.raw_ber);
  fnv_fold(h, c.tolerable_ber);
  fnv_fold(h, c.energy_nj);
  fnv_fold(h, std::uint64_t{c.meets_floor});
  fnv_fold(h, std::uint64_t{c.retention_weak_cells});
}

TEST(LayerKnobs, ReportIsPinnedBitExact) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::vector<std::vector<std::size_t>> shapes = {{900},
                                                        {600, 300, 200}};
  const std::vector<error::EccSpec> codes = {
      {error::EccKind::kNone, 64},
      {error::EccKind::kParity, 64},
      {error::EccKind::kBch, 512}};
  for (const auto& weights : shapes)
    for (const auto& code : codes) {
      SearchSetup s;
      s.in.error_model.retention.enabled = true;
      s.in.ecc = code;
      s.in.layer_weights = weights;
      s.in.layer_ber_th.assign(weights.size(), 0.0);
      s.in.layer_met_target.assign(weights.size(), true);
      for (std::size_t l = 0; l < weights.size(); ++l)
        s.in.layer_ber_th[l] = 1e-3 / static_cast<double>(1 + 4 * l);
      const auto report = assign_layer_knobs(s.cfg, s.in);
      fnv_fold(h, report.layers.size());
      for (const auto& c : report.layers) fold_choice(h, c);
      fnv_fold(h, report.total_energy_nj);
      fold_choice(h, report.uniform);
      fnv_fold(h, report.uniform_energy_nj);
      fnv_fold(h, std::uint64_t{report.uniform_feasible});
    }
  EXPECT_EQ(h, 0x310c868c31a29ae3ULL) << std::hex << h;
}

TEST(LayerKnobs, RejectsMismatchedInputs) {
  SearchSetup s;
  s.in.layer_ber_th.pop_back();
  EXPECT_THROW((void)assign_layer_knobs(s.cfg, s.in), ContractViolation);
  SearchSetup p;
  p.in.profile = nullptr;
  EXPECT_THROW((void)assign_layer_knobs(p.cfg, p.in), ContractViolation);
  SearchSetup v;
  v.in.voltages.clear();
  EXPECT_THROW((void)assign_layer_knobs(v.cfg, v.in), ContractViolation);
}

}  // namespace
}  // namespace sparkxd::core
