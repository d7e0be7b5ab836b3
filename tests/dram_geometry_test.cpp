// Tests for DRAM geometry, address codecs and identifiers.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dram/geometry.hpp"

namespace sparkxd::dram {
namespace {

TEST(Geometry, Lpddr3CapacityIs4Gb) {
  const auto g = Geometry::lpddr3_4gb();
  g.validate();
  // 8 banks x 32768 rows x 2 KB rows = 512 MB = 4 Gb.
  EXPECT_EQ(std::uint64_t{g.banks_per_chip} * g.rows_per_bank() *
                g.columns_per_row * g.column_bytes,
            512ull * 1024 * 1024);
  EXPECT_EQ(g.columns_per_row * g.column_bytes, 2048u);
  EXPECT_EQ(g.rows_per_bank(), 32768u);
  EXPECT_EQ(g.burst_bytes(), 32u);
  EXPECT_EQ(g.total_subarrays(), 8u * 64u);
}

TEST(Geometry, ValidateRejectsZeroLevels) {
  auto g = Geometry::lpddr3_4gb();
  g.banks_per_chip = 0;
  EXPECT_THROW(g.validate(), ContractViolation);
}

TEST(Geometry, ValidateRejectsBadBurst) {
  auto g = Geometry::lpddr3_4gb();
  g.burst_columns = 7;  // does not divide 512
  EXPECT_THROW(g.validate(), ContractViolation);
  g.burst_columns = 1024;  // larger than the row
  EXPECT_THROW(g.validate(), ContractViolation);
}

/// Every word address of a small multi-level geometry, in hierarchy order
/// (channel outermost, column innermost).
std::vector<Address> all_words(const Geometry& g) {
  std::vector<Address> out;
  for (std::uint32_t ch = 0; ch < g.channels; ++ch)
    for (std::uint32_t ra = 0; ra < g.ranks_per_channel; ++ra)
      for (std::uint32_t cp = 0; cp < g.chips_per_rank; ++cp)
        for (std::uint32_t ba = 0; ba < g.banks_per_chip; ++ba)
          for (std::uint32_t su = 0; su < g.subarrays_per_bank; ++su)
            for (std::uint32_t ro = 0; ro < g.rows_per_subarray; ++ro)
              for (std::uint32_t co = 0; co < g.columns_per_row; ++co)
                out.push_back({ch, ra, cp, ba, su, ro, co});
  return out;
}

TEST(Address, LinearCodeIsDenseAndOrderedOnSmallGeometry) {
  // encode_linear is injective and dense: walking the hierarchy in order
  // (columns of a row, rows of a bank, then banks, chips, ranks, channels)
  // yields exactly the byte addresses 0, 4, 8, ... of the whole module.
  Geometry g;
  g.channels = 2;
  g.ranks_per_channel = 2;
  g.chips_per_rank = 2;
  g.banks_per_chip = 2;
  g.subarrays_per_bank = 2;
  g.rows_per_subarray = 4;
  g.columns_per_row = 8;
  g.column_bytes = 4;
  g.burst_columns = 4;
  g.validate();
  const auto words = all_words(g);
  ASSERT_EQ(words.size(), 2u * 2 * 2 * 2 * 2 * 4 * 8);
  for (std::size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(encode_linear(g, words[i]), i * g.column_bytes);
}

TEST(Address, LinearCodeIsUniqueOnFullGeometry) {
  const auto g = Geometry::lpddr3_4gb();
  const std::uint64_t module_bytes = std::uint64_t{g.banks_per_chip} *
                                     g.rows_per_bank() * g.columns_per_row *
                                     g.column_bytes;
  Rng rng(99);
  std::set<std::uint64_t> seen;
  std::set<std::vector<std::uint32_t>> drawn;
  for (int i = 0; i < 2000; ++i) {
    Address a;
    a.bank = static_cast<std::uint32_t>(rng.index(g.banks_per_chip));
    a.subarray = static_cast<std::uint32_t>(rng.index(g.subarrays_per_bank));
    a.row = static_cast<std::uint32_t>(rng.index(g.rows_per_subarray));
    a.column = static_cast<std::uint32_t>(rng.index(g.columns_per_row));
    const auto enc = encode_linear(g, a);
    EXPECT_LT(enc, module_bytes);
    EXPECT_EQ(enc % g.column_bytes, 0u);
    drawn.insert({a.bank, a.subarray, a.row, a.column});
    seen.insert(enc);
  }
  EXPECT_EQ(seen.size(), drawn.size());
}

TEST(Address, LinearAddressesAreColumnMajorWithinRow) {
  const auto g = Geometry::lpddr3_4gb();
  Address a{0, 0, 0, 0, 0, 0, 0};
  Address b = a;
  b.column = 1;
  EXPECT_EQ(encode_linear(g, b), encode_linear(g, a) + g.column_bytes);
}

TEST(Address, CheckAddressRejectsOutOfRange) {
  const auto g = Geometry::lpddr3_4gb();
  Address a;
  a.bank = g.banks_per_chip;
  EXPECT_THROW(check_address(g, a), ContractViolation);
  a = Address{};
  a.column = g.columns_per_row;
  EXPECT_THROW(check_address(g, a), ContractViolation);
  a = Address{};
  a.channel = 1;  // only one channel
  EXPECT_THROW(check_address(g, a), ContractViolation);
}

TEST(Identifiers, SubarrayIdsAreDenseAndUnique) {
  const auto g = Geometry::lpddr3_4gb();
  std::set<std::uint64_t> ids;
  for (std::uint32_t ba = 0; ba < g.banks_per_chip; ++ba)
    for (std::uint32_t su = 0; su < g.subarrays_per_bank; ++su) {
      Address a{0, 0, 0, ba, su, 0, 0};
      const auto id = subarray_id(g, a);
      EXPECT_LT(id, g.total_subarrays());
      ids.insert(id);
    }
  EXPECT_EQ(ids.size(), g.total_subarrays());
}

TEST(Identifiers, BankRowCombinesSubarrayAndRow) {
  const auto g = Geometry::lpddr3_4gb();
  Address a{0, 0, 0, 0, 2, 5, 0};
  EXPECT_EQ(bank_row(g, a), 2u * g.rows_per_subarray + 5u);
}

TEST(Identifiers, BankIdDistinguishesBanks) {
  const auto g = Geometry::lpddr3_4gb();
  Address a{0, 0, 0, 3, 0, 0, 0};
  Address b{0, 0, 0, 4, 0, 0, 0};
  EXPECT_NE(bank_id(g, a), bank_id(g, b));
}

}  // namespace
}  // namespace sparkxd::dram
