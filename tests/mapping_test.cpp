// Tests for the DRAM mapping policies (baseline §IV-B Step-2, SparkXD
// Algorithm 2) and the trace generator. One-layer cases read layer 0 of the
// layer-list API.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/contracts.hpp"
#include "dram/controller.hpp"
#include "mapping/mapping.hpp"

namespace sparkxd::mapping {
namespace {

dram::Geometry geom() { return dram::Geometry::lpddr3_4gb(); }

/// Encodes a chunk address into a unique key for uniqueness checks.
std::uint64_t key(const dram::Geometry& g, const dram::Address& a) {
  return dram::encode_linear(g, a);
}

/// One-layer baseline placement of n weights.
error::ChunkPlacement baseline(const dram::Geometry& g, std::size_t n) {
  return baseline_placement_layers(g, {n})[0];
}

/// FNV-1a 64 over the chunk count and every field of every chunk address.
std::uint64_t digest(const error::ChunkPlacement& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  fold(p.size());
  for (const auto& a : p)
    for (const std::uint32_t f :
         {a.channel, a.rank, a.chip, a.bank, a.subarray, a.row, a.column})
      fold(f);
  return h;
}

TEST(Helpers, WeightsPerChunk) {
  EXPECT_EQ(weights_per_chunk(geom()), 8u);  // 32 B / FP32
  EXPECT_EQ(chunks_for_weights(geom(), 16), 2u);
  EXPECT_EQ(chunks_for_weights(geom(), 17), 3u);
  EXPECT_EQ(chunks_for_weights(geom(), 0), 0u);
}

// ------------------------------------------------------------------ baseline

TEST(Baseline, CoversAllWeightsWithUniqueBurstAlignedChunks) {
  const auto g = geom();
  const std::size_t n_weights = 100000;
  const auto p = baseline(g, n_weights);
  EXPECT_EQ(p.size(), chunks_for_weights(g, n_weights));
  std::set<std::uint64_t> keys;
  for (const auto& a : p) {
    EXPECT_EQ(a.column % g.burst_columns, 0u) << "burst misaligned";
    keys.insert(key(g, a));
  }
  EXPECT_EQ(keys.size(), p.size()) << "chunks overlap";
}

TEST(Baseline, FillsSubsequentAddressesInOneBankFirst) {
  const auto g = geom();
  const auto p = baseline(g, 100000);
  // First chunk at bank 0 row 0 col 0; consecutive chunks advance columns.
  EXPECT_EQ(p[0].bank, 0u);
  EXPECT_EQ(p[0].column, 0u);
  EXPECT_EQ(p[1].column, g.burst_columns);
  // All of these weights fit in bank 0.
  for (const auto& a : p) EXPECT_EQ(a.bank, 0u);
}

TEST(Baseline, SpillsToNextBankWhenFull) {
  auto g = geom();
  g.subarrays_per_bank = 1;
  g.rows_per_subarray = 2;  // tiny banks: 2 rows * 512 cols * 4 B = 4 KB
  const std::size_t weights_per_bank =
      g.rows_per_bank() * g.columns_per_row;  // FP32 words per bank
  const auto p = baseline(g, weights_per_bank + 8);
  EXPECT_EQ(p.back().bank, 1u);
}

TEST(Baseline, ThrowsWhenModuleTooSmall) {
  auto g = geom();
  g.banks_per_chip = 1;
  g.subarrays_per_bank = 1;
  g.rows_per_subarray = 1;
  EXPECT_THROW(baseline(g, 10000), ContractViolation);
}

TEST(Baseline, LinearAddressesAreContiguous) {
  // "Subsequent addresses in a DRAM bank": byte addresses advance by one
  // burst per chunk.
  const auto g = geom();
  const auto p = baseline(g, 5000);
  for (std::size_t i = 1; i < p.size(); ++i)
    EXPECT_EQ(key(g, p[i]), key(g, p[i - 1]) + g.burst_bytes());
}

// ------------------------------------------------------------------- sparkxd

struct SparkXdFixture : public ::testing::Test {
  dram::Geometry g = geom();
  error::SubarrayProfile profile{g, 42};
  double module_ber = 1e-3;
  double ber_th = 1e-3;
  std::size_t n_weights = 784 * 400;

  /// One-layer Algorithm-2 placement of n_weights at threshold `th`.
  [[nodiscard]] LayerPlacement place(double ber, double th) const {
    return sparkxd_placement_layers(g, profile, ber, {th}, {n_weights})[0];
  }
};

TEST_F(SparkXdFixture, AllChunksInSafeSubarrays) {
  const auto p = place(module_ber, ber_th);
  for (const auto& a : p.chunks) {
    const auto sid = dram::subarray_id(g, a);
    EXPECT_LE(profile.rate(sid, module_ber), ber_th)
        << "weight stored in an unsafe subarray";
  }
}

TEST_F(SparkXdFixture, ChunksUniqueAndComplete) {
  const auto p = place(module_ber, ber_th);
  EXPECT_EQ(p.chunks.size(), chunks_for_weights(g, n_weights));
  std::set<std::uint64_t> keys;
  for (const auto& a : p.chunks) keys.insert(key(g, a));
  EXPECT_EQ(keys.size(), p.chunks.size());
}

TEST_F(SparkXdFixture, DiagnosticsAddUp) {
  const auto p = place(module_ber, ber_th);
  EXPECT_EQ(p.safe_subarrays + p.unsafe_subarrays, g.total_subarrays());
  EXPECT_EQ(p.safe_subarrays, profile.count_safe(module_ber, ber_th));
  EXPECT_GT(p.unsafe_subarrays, 0u);  // lognormal spread guarantees some
}

TEST_F(SparkXdFixture, RotatesAcrossBanksAtRowGranularity) {
  const auto p = place(module_ber, ber_th);
  const std::size_t bursts_per_row = g.columns_per_row / g.burst_columns;
  // Within the first row's worth of chunks the bank is constant...
  for (std::size_t i = 1; i < bursts_per_row; ++i)
    EXPECT_EQ(p.chunks[i].bank, p.chunks[0].bank);
  // ...and the next row's worth sits in a different bank (multi-bank
  // rotation), unless that bank was unsafe everywhere.
  EXPECT_NE(p.chunks[bursts_per_row].bank, p.chunks[0].bank);
}

TEST_F(SparkXdFixture, EverythingSafeAtZeroBer) {
  const auto p = place(0.0, 0.0);
  EXPECT_EQ(p.safe_subarrays, g.total_subarrays());
  EXPECT_EQ(p.unsafe_subarrays, 0u);
}

TEST_F(SparkXdFixture, TighterThresholdUsesFewerSubarrays) {
  const auto loose = place(module_ber, 1e-3);
  const auto tight = place(module_ber, 3e-4);
  EXPECT_LT(tight.safe_subarrays, loose.safe_subarrays);
}

TEST_F(SparkXdFixture, SkipsExactlyTheUnsafeSubarrays) {
  const auto p = place(module_ber, ber_th);
  std::set<std::uint64_t> used;
  for (const auto& a : p.chunks) used.insert(dram::subarray_id(g, a));
  for (const auto sid : used)
    EXPECT_LE(profile.rate(sid, module_ber), ber_th);
}

// ------------------------------------------------------------ trace & timing

TEST_F(SparkXdFixture, ProposedMappingAtLeastAsFastAsBaseline) {
  // The throughput claim of Fig. 12b: Algorithm 2 overlaps row switches
  // across banks, so it cannot be slower than the baseline fill.
  const auto base = baseline(g, n_weights);
  const auto prop = place(module_ber, ber_th);
  dram::Controller c(g, dram::TimingParams::lpddr3_1600());
  const auto t_base =
      c.run(streaming_read_trace(g, base, n_weights)).total_time_ns;
  const auto t_prop =
      c.run(streaming_read_trace(g, prop.chunks, n_weights)).total_time_ns;
  EXPECT_LE(t_prop, t_base * 1.001);
}

TEST_F(SparkXdFixture, BothMappingsMaximizeRowHits) {
  const auto base = baseline(g, n_weights);
  const auto prop = place(module_ber, ber_th);
  dram::Controller c(g, dram::TimingParams::lpddr3_1600());
  const auto s_base = c.run(streaming_read_trace(g, base, n_weights));
  const auto s_prop = c.run(streaming_read_trace(g, prop.chunks, n_weights));
  EXPECT_GT(s_base.hit_rate(), 0.95);
  EXPECT_GT(s_prop.hit_rate(), 0.95);
}

TEST(TraceGen, OneAccessPerChunkInOrder) {
  const auto g = geom();
  const auto p = baseline(g, 100);
  const auto trace = streaming_read_trace(g, p, 100);
  EXPECT_EQ(trace.size(), chunks_for_weights(g, 100));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].addr, p[i]);
    EXPECT_EQ(trace[i].type, dram::AccessType::kRead);
  }
}

TEST(TraceGen, MultiplePassesRepeat) {
  const auto g = geom();
  const auto p = baseline(g, 64);
  const auto trace = streaming_read_trace(g, p, 64, 3);
  const std::size_t per_pass = chunks_for_weights(g, 64);
  EXPECT_EQ(trace.size(), 3 * per_pass);
  EXPECT_EQ(trace[0].addr, trace[per_pass].addr);
}

TEST(TraceGen, RejectsUndersizedPlacementAndZeroPasses) {
  const auto g = geom();
  const auto p = baseline(g, 64);
  EXPECT_THROW(streaming_read_trace(g, p, 1000), ContractViolation);
  EXPECT_THROW(streaming_read_trace(g, p, 64, 0), ContractViolation);
}

// ------------------------------------------------- multi-layer placements

TEST(MultiLayer, BaselineLayersSliceTheLinearWalk) {
  const auto g = geom();
  const std::vector<std::size_t> layer_weights{784 * 48, 48 * 25};
  const auto per_layer = baseline_placement_layers(g, layer_weights);
  ASSERT_EQ(per_layer.size(), 2u);
  // Each layer covers its own weights in whole chunks, and layer 1
  // continues at the next subsequent address.
  for (std::size_t l = 0; l < 2; ++l)
    EXPECT_EQ(per_layer[l].size(), chunks_for_weights(g, layer_weights[l]));
  EXPECT_EQ(key(g, per_layer[1].front()),
            key(g, per_layer[0].back()) + g.burst_bytes());
  // Chunk-aligned, not row-aligned: layer 0 (4704 chunks, 64 per row) ends
  // mid-row, so layer 1 starts in the same row.
  EXPECT_EQ(per_layer[1].front().row, per_layer[0].back().row);
  EXPECT_EQ(per_layer[1].front().subarray, per_layer[0].back().subarray);
  EXPECT_EQ(per_layer[1].front().bank, per_layer[0].back().bank);
}

// The digests were recorded from the single-layer placement functions the
// layer-list API replaced (one FNV-1a over every chunk address). A one-layer
// list must keep producing those placements chunk for chunk.
TEST(MultiLayer, OneLayerPlacementsArePinned) {
  const auto g = geom();
  const std::size_t n_weights = 784 * 400;
  const auto base = baseline_placement_layers(g, {n_weights});
  ASSERT_EQ(base.size(), 1u);
  EXPECT_EQ(base[0].size(), chunks_for_weights(g, n_weights));
  EXPECT_EQ(digest(base[0]), 0x5abfa4f3c9e69b42ULL);

  const error::SubarrayProfile profile(g, 42);
  const auto prop =
      sparkxd_placement_layers(g, profile, 1e-3, {1e-3}, {n_weights});
  ASSERT_EQ(prop.size(), 1u);
  EXPECT_EQ(prop[0].ber_th, 1e-3);
  EXPECT_FALSE(prop[0].capacity_relaxed);
  EXPECT_EQ(prop[0].safe_subarrays, 330u);
  EXPECT_EQ(prop[0].unsafe_subarrays, 182u);
  EXPECT_EQ(prop[0].chunks.size(), chunks_for_weights(g, n_weights));
  EXPECT_EQ(digest(prop[0].chunks), 0x0b6b8cf3a40476c2ULL);
}

TEST(MultiLayer, RelaxesPerLayerThresholdWhenCapacityRunsOut) {
  const auto g = geom();
  const error::SubarrayProfile profile(g, 42);
  // A threshold far below every subarray's rate fits nothing; the placement
  // must relax it (module_ber/8, then doubling) instead of throwing.
  const auto multi =
      sparkxd_placement_layers(g, profile, 1e-3, {1e-9}, {784 * 25});
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_TRUE(multi[0].capacity_relaxed);
  EXPECT_GT(multi[0].ber_th, 1e-9);
  EXPECT_EQ(multi[0].chunks.size(), chunks_for_weights(g, 784 * 25));
}

TEST(MultiLayer, ThrowsWhenModuleCannotHoldTheStack) {
  auto g = geom();
  g.banks_per_chip = 1;
  g.subarrays_per_bank = 2;
  g.rows_per_subarray = 2;
  const error::SubarrayProfile profile(g, 42);
  EXPECT_THROW(
      (void)sparkxd_placement_layers(g, profile, 1e-3, {1e-3, 1e-3},
                                     {100000, 100000}),
      ContractViolation);
  // One threshold per layer is mandatory.
  EXPECT_THROW((void)sparkxd_placement_layers(g, profile, 1e-3, {1e-3},
                                              {100, 100}),
               ContractViolation);
}

/// Property/fuzz sweep: across randomized geometries, operating BERs,
/// profile spreads (sigma), and 1-3 layer stacks, the per-layer placement
/// must (a) never put a chunk into a subarray unsafe at that layer's final
/// threshold, (b) produce pairwise-disjoint, in-bounds, burst-aligned
/// chunks within AND across layers, and (c) report occupancy diagnostics
/// that tile the module and match the profile's own safe count.
TEST(MultiLayerProperty, RandomizedGeometriesBersAndSigmas) {
  Rng rng(0xf00d);
  for (std::size_t iter = 0; iter < 25; ++iter) {
    dram::Geometry g;
    g.banks_per_chip = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
    g.subarrays_per_bank = static_cast<std::uint32_t>(rng.uniform_int(2, 16));
    g.rows_per_subarray = static_cast<std::uint32_t>(rng.uniform_int(4, 64));
    g.columns_per_row = 8u << rng.uniform_int(0, 3);  // 8..64 words
    const double sigma = rng.uniform(0.2, 1.5);
    const double module_ber = std::pow(10.0, rng.uniform(-7.0, -3.0));
    const error::SubarrayProfile profile(g, rng.next_u64(), sigma);

    const std::size_t n_layers = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<std::size_t> layer_weights(n_layers);
    std::vector<double> thresholds(n_layers);
    // Capacity headroom: keep the stack well under the module size so the
    // relax loop terminates by relaxing rather than exhausting the module.
    const std::size_t module_words =
        static_cast<std::size_t>(g.total_subarrays() * g.rows_per_subarray *
                                 g.columns_per_row * g.column_bytes /
                                 sizeof(float));
    for (std::size_t l = 0; l < n_layers; ++l) {
      layer_weights[l] = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(
                                 module_words / (4 * n_layers))));
      // Thresholds from "nothing safe" to "everything safe".
      thresholds[l] = std::pow(10.0, rng.uniform(-9.0, -1.0));
    }

    const auto multi = sparkxd_placement_layers(g, profile, module_ber,
                                                thresholds, layer_weights);
    ASSERT_EQ(multi.size(), n_layers);
    std::set<std::uint64_t> all_keys;
    for (std::size_t l = 0; l < n_layers; ++l) {
      const auto& lp = multi[l];
      EXPECT_EQ(lp.chunks.size(), chunks_for_weights(g, layer_weights[l]));
      // Occupancy diagnostics tile the module and match the profile.
      EXPECT_EQ(lp.safe_subarrays + lp.unsafe_subarrays, g.total_subarrays());
      EXPECT_EQ(lp.safe_subarrays, profile.count_safe(module_ber, lp.ber_th));
      // Relaxation only ever loosens the caller's threshold.
      EXPECT_GE(lp.ber_th, thresholds[l]);
      if (!lp.capacity_relaxed) {
        EXPECT_EQ(lp.ber_th, thresholds[l]);
      }
      for (const auto& a : lp.chunks) {
        // In bounds + burst-aligned.
        ASSERT_NO_THROW(dram::check_address(g, a));
        EXPECT_EQ(a.column % g.burst_columns, 0u);
        // Never in a subarray unsafe at this layer's final threshold.
        EXPECT_LE(profile.rate(dram::subarray_id(g, a), module_ber),
                  lp.ber_th);
        // Disjoint within and across layers.
        EXPECT_TRUE(all_keys.insert(key(g, a)).second)
            << "overlapping chunks at iter " << iter;
      }
    }

    // The baseline split obeys the same disjointness/bounds contract.
    const auto base = baseline_placement_layers(g, layer_weights);
    std::set<std::uint64_t> base_keys;
    for (const auto& layer : base)
      for (const auto& a : layer) {
        ASSERT_NO_THROW(dram::check_address(g, a));
        EXPECT_TRUE(base_keys.insert(key(g, a)).second);
      }
  }
}

class WeightCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WeightCounts, BaselineAndSparkXdAgreeOnChunkCount) {
  const auto g = geom();
  const error::SubarrayProfile profile(g, 1);
  const auto n = GetParam();
  const auto base = baseline(g, n);
  const auto prop =
      sparkxd_placement_layers(g, profile, 1e-4, {1e-3}, {n})[0];
  EXPECT_EQ(base.size(), prop.chunks.size());
}

INSTANTIATE_TEST_SUITE_P(NetworkSizes, WeightCounts,
                         ::testing::Values(784 * 400, 784 * 900, 784 * 1600,
                                           784 * 2500, 784 * 3600));

}  // namespace
}  // namespace sparkxd::mapping
