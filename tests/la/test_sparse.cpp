#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/sparse.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

TEST(TripletBuilder, CoalescesDuplicates) {
  TripletBuilder builder(3);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(1, 2, -1.0);
  const SparseMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.get(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.get(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.get(2, 2), 0.0);
}

TEST(TripletBuilder, SumsDuplicatesInInsertionOrder) {
  // 2⁵³ + 1 rounds back to 2⁵³, so the sum of these duplicates depends on
  // the order they are added in: left to right it is exactly 2⁵³ − 2⁵³ = 0,
  // while any 1.0 summed ahead of 2⁵³ survives. Interleaving them with
  // entries added in descending row order gives the sort something to
  // move.
  constexpr double kBig = 9007199254740992.0;  // 2⁵³
  TripletBuilder builder(4);
  double expected = 0.0;
  for (std::size_t k = 0; k < 20; ++k) {
    const double v = k == 0 ? kBig : (k == 19 ? -kBig : 1.0);
    builder.add(1, 3, v);
    expected += v;
    builder.add(3 - k % 4, k % 3, 0.5);
  }
  ASSERT_EQ(expected, 0.0);
  const SparseMatrix m = builder.build();
  EXPECT_EQ(m.get(1, 3), expected);
  EXPECT_EQ(m.get(3, 0), 1.0);  // k = 0 and 12
}

TEST(TripletBuilder, ShuffledDuplicatesMatchStableSortBitForBit) {
  // build() sorts by row with a counting sort and by column within a row
  // with an insertion sort; the result must be the one a stable sort by
  // (row, col) gives. Duplicates are spread over the rows in a shuffled
  // order, mixed in magnitude so a different summation order would change
  // their bits. Rows 3 and 7 get 75 triplets each, rows 0, 4 and 8 none,
  // the others 30.
  constexpr std::size_t n = 12;
  util::Rng rng(0x5EED);
  std::vector<Triplet> added;
  for (std::size_t k = 0; k < 360; ++k) {
    const std::size_t r = k % 4 == 0 ? (k % 8 == 0 ? 3 : 7) : k % n;
    const std::size_t c = 2 * rng.uniform_index(6) + r % 2;
    const double v = k % 7 == 0 ? rng.uniform(-1.0, 1.0) * 1e16
                                : rng.uniform(-1.0, 1.0);
    added.push_back({r, c, v});
  }
  TripletBuilder builder(n);
  for (const Triplet& t : added) builder.add(t.row, t.col, t.value);
  const SparseMatrix m = builder.build();

  std::vector<Triplet> reference = added;
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  std::size_t stored = 0;
  for (std::size_t i = 0; i < reference.size();) {
    const Triplet& head = reference[i];
    double sum = 0.0;
    for (; i < reference.size() && reference[i].row == head.row &&
           reference[i].col == head.col;
         ++i) {
      sum += reference[i].value;
    }
    ++stored;
    ASSERT_NE(m.position(head.row, head.col), SparseMatrix::npos)
        << head.row << "," << head.col;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.get(head.row, head.col)),
              std::bit_cast<std::uint64_t>(sum))
        << head.row << "," << head.col;
  }
  EXPECT_EQ(m.nnz(), stored);
}

TEST(TripletBuilder, OutOfRangeThrows) {
  TripletBuilder builder(2);
  EXPECT_THROW(builder.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(builder.add(0, 2, 1.0), std::out_of_range);
}

TEST(TripletBuilder, RejectsMoreRowsThanInt32ColumnsReach) {
  // Checked before anything is allocated, so the huge size costs nothing.
  const TripletBuilder builder(std::size_t{1} << 31);
  EXPECT_THROW((void)builder.build(), std::length_error);
}

// The CsrMatrix suite name predates the SELL-8 storage; its tests cover the
// same SparseMatrix operations.
TEST(CsrMatrix, MultiplyMatchesManual) {
  TripletBuilder builder(2);
  builder.add(0, 0, 2.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, 3.0);
  const SparseMatrix m = builder.build();
  const Vector y = m.multiply({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrMatrix, Diagonal) {
  TripletBuilder builder(3);
  builder.add(0, 0, 5.0);
  builder.add(2, 2, -2.0);
  builder.add(0, 1, 9.0);
  const Vector d = builder.build().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], -2.0);
}

TEST(CsrMatrix, SymmetryCheck) {
  TripletBuilder sym(2);
  sym.add(0, 1, 2.0);
  sym.add(1, 0, 2.0);
  sym.add(0, 0, 1.0);
  EXPECT_TRUE(sym.build().is_symmetric());

  TripletBuilder asym(2);
  asym.add(0, 1, 2.0);
  EXPECT_FALSE(asym.build().is_symmetric());
}

TEST(CsrMatrix, EmptyRowsHandled) {
  TripletBuilder builder(4);
  builder.add(3, 3, 1.0);
  const SparseMatrix m = builder.build();
  const Vector y = m.multiply({1.0, 1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(SparseMatrix, SlicesAreAsWideAsTheirLongestRow) {
  // Rows 0..7 (slice 0) hold 1, 3, 0, … entries; row 9 (slice 1) holds 2.
  // Slot k of a slice is one 8-lane vector, so storage is 8·(3 + 2) values.
  TripletBuilder builder(10);
  builder.add(0, 0, 1.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 4, 3.0);
  builder.add(1, 9, 4.0);
  builder.add(9, 2, 5.0);
  builder.add(9, 8, 6.0);
  const SparseMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 6u);
  EXPECT_EQ(m.values().size(), 8u * (3u + 2u));
  // Row r's k-th entry sits at slice_start + 8k + r mod 8.
  EXPECT_EQ(m.position(1, 0), 1u);
  EXPECT_EQ(m.position(1, 4), 9u);
  EXPECT_EQ(m.position(1, 9), 17u);
  EXPECT_EQ(m.position(9, 2), 24u + 1u);
  EXPECT_EQ(m.position(9, 8), 24u + 9u);
  // Padding lanes hold 0.
  double sum = 0.0;
  for (const double v : m.values()) sum += v;
  EXPECT_EQ(sum, 21.0);
}

TEST(SparseMatrix, PositionLocatesStoredEntries) {
  TripletBuilder builder(12);
  for (std::size_t r = 0; r < 12; ++r) {
    builder.add(r, r, 1.0 + static_cast<double>(r));
    if (r + 3 < 12) builder.add(r, r + 3, -0.5 * static_cast<double>(r));
  }
  builder.add(4, 11, 7.0);
  builder.add(4, 11, 0.25);  // duplicates coalesce into one stored entry
  const SparseMatrix m = builder.build();

  // A stored entry: its value sits at its position.
  const std::size_t p = m.position(4, 11);
  ASSERT_NE(p, SparseMatrix::npos);
  EXPECT_EQ(m.values()[p], 7.25);
  // An absent entry.
  EXPECT_EQ(m.position(4, 5), SparseMatrix::npos);
  EXPECT_EQ(m.position(11, 0), SparseMatrix::npos);
  // Out of range.
  EXPECT_THROW((void)m.position(12, 0), std::out_of_range);
  EXPECT_THROW((void)m.position(0, 12), std::out_of_range);
  // values()[position(r, c)] == get(r, c) for every stored entry, and each
  // position is distinct.
  std::vector<std::size_t> seen;
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < 12; ++c) {
      const std::size_t q = m.position(r, c);
      if (q == SparseMatrix::npos) {
        EXPECT_EQ(m.get(r, c), 0.0) << r << "," << c;
        continue;
      }
      EXPECT_EQ(m.values()[q], m.get(r, c)) << r << "," << c;
      seen.push_back(q);
    }
  }
  EXPECT_EQ(seen.size(), m.nnz());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(SparseMatrix, ForEachEntryVisitsEveryStoredEntryOnceInOrder) {
  // Two slices, empty rows and a duplicate: rows ascending, columns
  // ascending within a row, each entry once at its position().
  TripletBuilder builder(11);
  builder.add(9, 2, 1.0);
  builder.add(1, 9, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 4, 1.0);
  builder.add(0, 0, 1.0);
  builder.add(10, 10, 1.0);
  builder.add(9, 2, 1.0);
  const SparseMatrix m = builder.build();
  std::vector<std::array<std::size_t, 3>> visited;
  m.for_each_entry([&](std::size_t r, std::size_t c, std::size_t p) {
    visited.push_back({r, c, p});
  });
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 0}, {1, 0}, {1, 4}, {1, 9}, {9, 2}, {10, 10}};
  ASSERT_EQ(visited.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto [r, c] = expected[i];
    EXPECT_EQ(visited[i][0], r) << i;
    EXPECT_EQ(visited[i][1], c) << i;
    EXPECT_EQ(visited[i][2], m.position(r, c)) << i;
  }
}

TEST(SparseMatrix, RestampThroughPositionMovesOnlyThatEntry) {
  TripletBuilder builder(9);
  for (std::size_t r = 0; r < 9; ++r) {
    builder.add(r, r, 2.0);
    if (r > 0) builder.add(r, r - 1, -1.0);
  }
  SparseMatrix m = builder.build();
  m.mutable_values()[m.position(8, 8)] += 3.0;
  const Vector y = m.multiply(Vector(9, 1.0));
  EXPECT_EQ(y[0], 2.0);
  for (std::size_t r = 1; r < 8; ++r) EXPECT_EQ(y[r], 1.0) << r;
  EXPECT_EQ(y[8], 4.0);
}

}  // namespace
}  // namespace oftec::la
