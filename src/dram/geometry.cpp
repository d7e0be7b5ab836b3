#include "dram/geometry.hpp"

namespace sparkxd::dram {

void Geometry::validate() const {
  SPARKXD_REQUIRE(channels && ranks_per_channel && chips_per_rank &&
                      banks_per_chip && subarrays_per_bank &&
                      rows_per_subarray && columns_per_row && column_bytes,
                  "every geometry level must have at least one element");
  // A module far larger than any real one is a wrapped count. Bound the
  // subarrays (one profile entry each), the rows (one placement flag each)
  // and the row bytes; a double holds each product without wrapping.
  const double subarrays = static_cast<double>(channels) * ranks_per_channel *
                           chips_per_rank * banks_per_chip * subarrays_per_bank;
  const double row_bytes = static_cast<double>(columns_per_row) * column_bytes;
  SPARKXD_REQUIRE(subarrays <= 0x1p20 &&
                      subarrays * rows_per_subarray <= 0x1p28 &&
                      row_bytes <= 0x1p16,
                  "a module holds at most 2^20 subarrays and 2^28 rows of at "
                  "most 64 KiB");
  SPARKXD_REQUIRE(burst_columns >= 1 && burst_columns <= columns_per_row,
                  "burst length must fit in a row");
  SPARKXD_REQUIRE(columns_per_row % burst_columns == 0,
                  "rows must hold a whole number of bursts");
}

void check_address(const Geometry& g, const Address& a) {
  SPARKXD_REQUIRE(a.channel < g.channels, "channel out of range");
  SPARKXD_REQUIRE(a.rank < g.ranks_per_channel, "rank out of range");
  SPARKXD_REQUIRE(a.chip < g.chips_per_rank, "chip out of range");
  SPARKXD_REQUIRE(a.bank < g.banks_per_chip, "bank out of range");
  SPARKXD_REQUIRE(a.subarray < g.subarrays_per_bank, "subarray out of range");
  SPARKXD_REQUIRE(a.row < g.rows_per_subarray, "row out of range");
  SPARKXD_REQUIRE(a.column < g.columns_per_row, "column out of range");
}

std::uint64_t subarray_id(const Geometry& g, const Address& a) {
  check_address(g, a);
  return bank_id(g, a) * g.subarrays_per_bank + a.subarray;
}

std::uint64_t bank_id(const Geometry& g, const Address& a) {
  return ((std::uint64_t{a.channel} * g.ranks_per_channel + a.rank) *
              g.chips_per_rank +
          a.chip) *
             g.banks_per_chip +
         a.bank;
}

std::uint32_t bank_row(const Geometry& g, const Address& a) {
  return a.subarray * g.rows_per_subarray + a.row;
}

std::uint64_t encode_linear(const Geometry& g, const Address& a) {
  check_address(g, a);
  std::uint64_t x = a.channel;
  x = x * g.ranks_per_channel + a.rank;
  x = x * g.chips_per_rank + a.chip;
  x = x * g.banks_per_chip + a.bank;
  x = x * g.subarrays_per_bank + a.subarray;
  x = x * g.rows_per_subarray + a.row;
  x = x * g.columns_per_row + a.column;
  return x * g.column_bytes;
}

}  // namespace sparkxd::dram
