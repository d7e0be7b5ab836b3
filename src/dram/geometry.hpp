#pragma once
// DRAM organization model (paper §II-B1, Fig. 5a).
//
// A module is organized as channel / rank / chip / bank / subarray / row /
// column. The default configuration models the LPDDR3-1600 4 Gb x32 device
// the paper evaluates: 8 banks per chip, 2 KB rows, 64 subarrays per bank.
// A "column" here is one 4-byte word; a burst (BL8) transfers 8 consecutive
// columns = 32 B, the unit in which synaptic weights are fetched.

#include <cstdint>

#include "common/contracts.hpp"

namespace sparkxd::dram {

/// Counts of each level of the DRAM hierarchy.
struct Geometry {
  std::uint32_t channels = 1;
  std::uint32_t ranks_per_channel = 1;
  std::uint32_t chips_per_rank = 1;   ///< x32 LPDDR3: one chip fills the bus
  std::uint32_t banks_per_chip = 8;
  std::uint32_t subarrays_per_bank = 64;
  std::uint32_t rows_per_subarray = 512;  ///< 32768 rows/bank
  std::uint32_t columns_per_row = 512;    ///< 4-byte words; 2 KB rows
  std::uint32_t column_bytes = 4;
  std::uint32_t burst_columns = 8;  ///< BL8: 8 columns = 32 B per burst

  /// The paper's LPDDR3-1600 4 Gb configuration (the default above).
  [[nodiscard]] static Geometry lpddr3_4gb() { return {}; }

  [[nodiscard]] std::uint32_t rows_per_bank() const noexcept {
    return subarrays_per_bank * rows_per_subarray;
  }
  [[nodiscard]] std::uint64_t burst_bytes() const noexcept {
    return std::uint64_t{burst_columns} * column_bytes;
  }
  [[nodiscard]] std::uint64_t total_subarrays() const noexcept {
    return std::uint64_t{channels} * ranks_per_channel * chips_per_rank *
           banks_per_chip * subarrays_per_bank;
  }
  /// Validates that every level has at least one element, that the module
  /// has at most 2^20 subarrays and 2^28 rows of at most 64 KiB, and that
  /// a row holds a whole number of bursts.
  void validate() const;
};

/// A fully decomposed DRAM location. `row` is the row index *within the
/// subarray*; `column` is a 4-byte-word index within the row.
struct Address {
  std::uint32_t channel = 0;
  std::uint32_t rank = 0;
  std::uint32_t chip = 0;
  std::uint32_t bank = 0;
  std::uint32_t subarray = 0;
  std::uint32_t row = 0;
  std::uint32_t column = 0;

  friend bool operator==(const Address&, const Address&) = default;
};

/// Flat identifier of a subarray across the whole module (for error
/// profiles); layout: ((channel*ranks + rank)*chips + chip)*banks + bank,
/// then *subarrays + subarray.
[[nodiscard]] std::uint64_t subarray_id(const Geometry& g, const Address& a);

/// Flat identifier of a bank across the module.
[[nodiscard]] std::uint64_t bank_id(const Geometry& g, const Address& a);

/// Row index within the bank (subarray-major).
[[nodiscard]] std::uint32_t bank_row(const Geometry& g, const Address& a);

/// Byte-address codec: the canonical linearization used by the baseline
/// mapping ("subsequent addresses in a DRAM bank"): bytes advance through
/// columns of a row, then rows of a bank (subarray-major), then banks, then
/// chips, ranks, channels.
[[nodiscard]] std::uint64_t encode_linear(const Geometry& g, const Address& a);

/// Bounds-checks an address against the geometry.
void check_address(const Geometry& g, const Address& a);

}  // namespace sparkxd::dram
