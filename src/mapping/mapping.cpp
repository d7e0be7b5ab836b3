#include "mapping/mapping.hpp"

#include "common/contracts.hpp"

namespace sparkxd::mapping {

std::size_t weights_per_chunk(const dram::Geometry& g) {
  SPARKXD_REQUIRE(g.burst_bytes() % sizeof(float) == 0,
                  "burst size must hold whole FP32 weights");
  return g.burst_bytes() / sizeof(float);
}

std::size_t chunks_for_weights(const dram::Geometry& g,
                               std::size_t n_weights) {
  const std::size_t wpc = weights_per_chunk(g);
  return (n_weights + wpc - 1) / wpc;
}

namespace {

/// The baseline's sequential walk: `needed` chunks at subsequent addresses
/// within a bank — columns, then rows (subarray-major) — then the next
/// bank, chip, rank, channel. Throws if the module cannot hold them.
error::ChunkPlacement sequential_walk(const dram::Geometry& g,
                                      std::size_t needed) {
  const std::size_t bursts_per_row = g.columns_per_row / g.burst_columns;
  error::ChunkPlacement out;
  out.reserve(needed);
  for (std::uint32_t ch = 0; ch < g.channels && out.size() < needed; ++ch)
    for (std::uint32_t ra = 0; ra < g.ranks_per_channel && out.size() < needed;
         ++ra)
      for (std::uint32_t cp = 0; cp < g.chips_per_rank && out.size() < needed;
           ++cp)
        for (std::uint32_t ba = 0;
             ba < g.banks_per_chip && out.size() < needed; ++ba)
          for (std::uint32_t su = 0;
               su < g.subarrays_per_bank && out.size() < needed; ++su)
            for (std::uint32_t ro = 0;
                 ro < g.rows_per_subarray && out.size() < needed; ++ro)
              for (std::size_t b = 0;
                   b < bursts_per_row && out.size() < needed; ++b)
                out.push_back(dram::Address{
                    ch, ra, cp, ba, su, ro,
                    static_cast<std::uint32_t>(b * g.burst_columns)});

  SPARKXD_REQUIRE(out.size() == needed,
                  "DRAM module too small for the weight data");
  return out;
}

/// Algorithm 2's walk at threshold `ber_th`: counts the safe/unsafe
/// subarrays, then fills `out` with up to `needed` chunks through the loop
/// nest ch -> ra -> cp -> ro -> su -> ba -> safe? -> co. For a fixed row
/// offset, all columns of that row are filled (row-buffer hits, Step-1) and
/// the walk rotates across banks (multi-bank overlap, Step-2) before moving
/// to the next subarray and only then the next row. Rows flagged in `used`
/// (one flag per subarray row) hold earlier layers and are skipped; if the
/// walk fills `needed` chunks, the rows it consumed are flagged (row
/// granularity: partially filled rows are retired whole). Returns whether
/// `needed` chunks were placed; a failed walk leaves `used` untouched.
bool algorithm2_walk(const dram::Geometry& g,
                     const error::SubarrayProfile& profile, double module_ber,
                     double ber_th, std::size_t needed,
                     error::ChunkPlacement& out, std::size_t& safe,
                     std::size_t& unsafe, std::vector<std::uint8_t>& used) {
  const std::size_t bursts_per_row = g.columns_per_row / g.burst_columns;
  out.clear();
  out.reserve(needed);
  safe = 0;
  unsafe = 0;
  for (std::uint64_t s = 0; s < profile.size(); ++s)
    (profile.rate(s, module_ber) <= ber_th ? safe : unsafe)++;

  std::vector<std::uint64_t> rows;  // row keys consumed by this walk
  for (std::uint32_t ch = 0; ch < g.channels && out.size() < needed; ++ch)
    for (std::uint32_t ra = 0; ra < g.ranks_per_channel && out.size() < needed;
         ++ra)
      for (std::uint32_t cp = 0; cp < g.chips_per_rank && out.size() < needed;
           ++cp)
        for (std::uint32_t ro = 0;
             ro < g.rows_per_subarray && out.size() < needed; ++ro)
          for (std::uint32_t su = 0;
               su < g.subarrays_per_bank && out.size() < needed; ++su)
            for (std::uint32_t ba = 0;
                 ba < g.banks_per_chip && out.size() < needed; ++ba) {
              const dram::Address probe{ch, ra, cp, ba, su, ro, 0};
              const auto sid = dram::subarray_id(g, probe);
              if (profile.rate(sid, module_ber) > ber_th)
                continue;  // unsafe subarray: do not store weights here
              const std::uint64_t row_key = sid * g.rows_per_subarray + ro;
              if (used[row_key]) continue;  // row holds an earlier layer
              rows.push_back(row_key);
              for (std::size_t b = 0; b < bursts_per_row && out.size() < needed;
                   ++b)
                out.push_back(dram::Address{
                    ch, ra, cp, ba, su, ro,
                    static_cast<std::uint32_t>(b * g.burst_columns)});
            }

  if (out.size() < needed) return false;
  for (const auto key : rows) used[key] = 1;
  return true;
}

}  // namespace

std::vector<error::ChunkPlacement> baseline_placement_layers(
    const dram::Geometry& g, const std::vector<std::size_t>& layer_weights) {
  g.validate();
  SPARKXD_REQUIRE(!layer_weights.empty(), "need at least one layer");
  // Whole chunks per layer: a layer whose weights end mid-chunk pads the
  // remainder, so the next layer starts chunk-aligned and the regions stay
  // disjoint.
  std::size_t total_chunks = 0;
  for (const std::size_t n : layer_weights)
    total_chunks += chunks_for_weights(g, n);
  const auto flat = sequential_walk(g, total_chunks);

  std::vector<error::ChunkPlacement> out(layer_weights.size());
  std::size_t cursor = 0;
  for (std::size_t l = 0; l < layer_weights.size(); ++l) {
    const std::size_t n = chunks_for_weights(g, layer_weights[l]);
    out[l].assign(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
                  flat.begin() + static_cast<std::ptrdiff_t>(cursor + n));
    cursor += n;
  }
  return out;
}

std::vector<LayerPlacement> sparkxd_placement_layers(
    const dram::Geometry& g, const error::SubarrayProfile& profile,
    double module_ber, const std::vector<double>& thresholds,
    const std::vector<std::size_t>& layer_weights) {
  g.validate();
  SPARKXD_REQUIRE(!layer_weights.empty(), "need at least one layer");
  SPARKXD_REQUIRE(thresholds.size() == layer_weights.size(),
                  "need exactly one BER threshold per layer");

  std::vector<std::uint8_t> used(
      profile.size() * std::uint64_t{g.rows_per_subarray}, 0);
  std::vector<LayerPlacement> out(layer_weights.size());
  for (std::size_t l = 0; l < layer_weights.size(); ++l) {
    LayerPlacement& lp = out[l];
    lp.ber_th = thresholds[l];
    SPARKXD_REQUIRE(lp.ber_th >= 0.0, "BER_th must be non-negative");
    const std::size_t needed = chunks_for_weights(g, layer_weights[l]);
    // When the learned threshold is too strict to fit this layer at the
    // operating BER, relax it to the smallest feasible threshold and report
    // that honestly.
    while (!algorithm2_walk(g, profile, module_ber, lp.ber_th, needed,
                            lp.chunks, lp.safe_subarrays, lp.unsafe_subarrays,
                            used)) {
      SPARKXD_REQUIRE(lp.safe_subarrays < profile.size(),
                      "DRAM module cannot hold the layer stack even with "
                      "every subarray safe");
      lp.capacity_relaxed = true;
      lp.ber_th = lp.ber_th == 0.0 ? module_ber * 0.125 : lp.ber_th * 2.0;
      SPARKXD_REQUIRE(lp.ber_th < 1.0,
                      "weights cannot fit even with every subarray unsafe");
    }
  }
  return out;
}

dram::AccessTrace streaming_read_trace(const dram::Geometry& g,
                                       const error::ChunkPlacement& placement,
                                       std::size_t n_weights,
                                       std::size_t passes) {
  const std::size_t used = chunks_for_weights(g, n_weights);
  SPARKXD_REQUIRE(used <= placement.size(),
                  "placement does not cover the weight data");
  SPARKXD_REQUIRE(passes >= 1, "need at least one pass");
  dram::AccessTrace trace;
  trace.reserve(used * passes);
  for (std::size_t p = 0; p < passes; ++p)
    for (std::size_t c = 0; c < used; ++c)
      trace.push_back({placement[c], dram::AccessType::kRead});
  return trace;
}

}  // namespace sparkxd::mapping
