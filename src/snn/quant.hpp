#pragma once
// Quantized weight storage (uint8) — the representation EDEN [15] (the
// error-model source this paper builds on) uses, and the quantization knob
// the paper's related-work section (§I-A, Rathi et al. [6]) identifies as
// composable with approximate DRAM.
//
// Weights are quantized per neuron row with an affine scale:
//     q = round(w / scale),  scale = row_max / 255,
// so a stored byte decodes to  w = q * scale  in [0, row_max].
//
// The resilience consequence is structural: a bit flip in a uint8 code can
// move a weight by at most row_max (bit 7), and on average by far less —
// whereas an FP32 exponent flip multiplies the weight by up to 2^128.
// Quantized storage therefore needs no load-time range clipping; this is
// quantified by bench/ablation_quantization.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace sparkxd::snn {

/// A quantized copy of a weight matrix, row-major [n_neurons][n_inputs].
struct QuantizedWeights {
  std::vector<std::uint8_t> codes;  ///< one byte per synapse
  std::vector<float> row_scale;     ///< per-neuron dequantization scale
  std::size_t n_neurons = 0;
  std::size_t n_inputs = 0;

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return codes.size();
  }
};

/// Quantizes FP32 weights (all finite and >= 0, as produced by the STDP
/// rule) to per-row affine uint8 codes. Throws ContractViolation unless
/// `weights` holds n_neurons x n_inputs (n_inputs > 0) such weights.
[[nodiscard]] QuantizedWeights quantize(const std::vector<float>& weights,
                                        std::size_t n_neurons,
                                        std::size_t n_inputs);

/// Reconstructs FP32 weights from the codes. Throws ContractViolation
/// unless `q` holds n_neurons x n_inputs (n_inputs > 0) codes and one scale
/// per row.
[[nodiscard]] std::vector<float> dequantize(const QuantizedWeights& q);

}  // namespace sparkxd::snn
