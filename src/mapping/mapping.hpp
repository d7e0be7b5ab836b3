#pragma once
// DRAM data-mapping policies for synaptic weights.
//
// A *placement* assigns every 8-weight (32 B) burst chunk a DRAM address
// (the burst's first column). Both policies take a layer stack — one weight
// count per SNN layer, input side first — and return one placement per
// layer; a one-layer network passes a one-element list and reads layer 0.
//
//  * baseline_placement_layers — the paper's baseline (§IV-B Step-2):
//    weights fill subsequent addresses of a DRAM bank (all columns of a
//    row, then the next row of the same bank); when a bank is full, the
//    next bank of the same chip is used. Good row locality, no bank
//    interleaving, no awareness of per-subarray error rates.
//
//  * sparkxd_placement_layers — Algorithm 2 (§IV-D), per layer as in
//    EnforceSNN: weights are placed only in *safe* subarrays (error rate <=
//    the layer's BER_th at the operating BER), filling all columns of one
//    row to maximize row-buffer hits and rotating across banks at row
//    granularity so ACT/PRE of the next bank overlaps with the current
//    bank's bursts (the multi-bank burst feature, Fig. 9b). When the safe
//    subarrays cannot hold a layer, its threshold is relaxed until the
//    layer fits and the relaxation is reported.

#include <cstddef>
#include <vector>

#include "dram/geometry.hpp"
#include "dram/trace.hpp"
#include "error/injector.hpp"
#include "error/subarray_profile.hpp"

namespace sparkxd::mapping {

/// Weights per burst chunk (8 for 32 B bursts of FP32 weights).
[[nodiscard]] std::size_t weights_per_chunk(const dram::Geometry& g);

/// Number of burst chunks needed to store n_weights.
[[nodiscard]] std::size_t chunks_for_weights(const dram::Geometry& g,
                                             std::size_t n_weights);

/// Builds the inference access trace: every used chunk read once per pass,
/// in placement order (streaming weight fetch).
[[nodiscard]] dram::AccessTrace streaming_read_trace(
    const dram::Geometry& g, const error::ChunkPlacement& placement,
    std::size_t n_weights, std::size_t passes = 1);

// ---------------------------------------------------------------------------
// Layer placements: one address region per layer, all in the SAME module,
// with pairwise-disjoint chunk addresses. The two policies differ in how
// far apart the regions sit:
//  * sparkxd_placement_layers retires rows whole — a row holds chunks of at
//    most one layer, so a layer whose weights end mid-row pads out the rest
//    of that row;
//  * baseline_placement_layers is only chunk-aligned — the next layer
//    starts at the chunk after the previous layer's last one, so two
//    adjacent layers can share the row where one ends and the next begins.

/// The baseline mapping, split per layer: layer l occupies the next
/// chunks_for_weights(g, layer_weights[l]) subsequent addresses after layer
/// l-1. Throws if the module cannot hold all layers.
[[nodiscard]] std::vector<error::ChunkPlacement> baseline_placement_layers(
    const dram::Geometry& g, const std::vector<std::size_t>& layer_weights);

/// One layer's slice of an error-aware placement.
struct LayerPlacement {
  error::ChunkPlacement chunks;
  /// BER threshold this layer was actually placed under. Starts at the
  /// caller's per-layer BER_th; when the safe subarrays cannot hold the
  /// layer it is relaxed (0 -> module_ber/8, then doubling) until the layer
  /// fits.
  double ber_th = 0.0;
  bool capacity_relaxed = false;  ///< BER_th was raised to fit this layer
  std::size_t safe_subarrays = 0;    ///< subarrays meeting this layer's BER_th
  std::size_t unsafe_subarrays = 0;  ///< subarrays skipped as unsafe
};

/// Algorithm 2 with PER-LAYER BER thresholds (the EnforceSNN/EDEN
/// structure): each layer's weights go only into subarrays safe at ITS
/// threshold, layers are placed input-side first, and rows already holding
/// an earlier layer are skipped, so the per-layer address ranges are
/// disjoint. Every layer keeps the row-hit-maximizing, bank-rotating walk.
/// `module_ber` is the operating error rate (from the supply voltage);
/// `thresholds` and `layer_weights` must have equal, non-zero size. Throws
/// when a layer cannot fit even with every subarray unsafe (threshold
/// relaxed past 1).
[[nodiscard]] std::vector<LayerPlacement> sparkxd_placement_layers(
    const dram::Geometry& g, const error::SubarrayProfile& profile,
    double module_ber, const std::vector<double>& thresholds,
    const std::vector<std::size_t>& layer_weights);

}  // namespace sparkxd::mapping
