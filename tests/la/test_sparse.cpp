#include <gtest/gtest.h>

#include "la/sparse.h"

namespace oftec::la {
namespace {

TEST(TripletBuilder, CoalescesDuplicates) {
  TripletBuilder builder(3);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(1, 2, -1.0);
  const CsrMatrix m = builder.build();
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
  // move, and 40 triplets take it past a 16-element insertion sort.
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
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.get(1, 3), expected);
  EXPECT_EQ(m.get(3, 0), 1.0);  // k = 0 and 12
}

TEST(TripletBuilder, OutOfRangeThrows) {
  TripletBuilder builder(2);
  EXPECT_THROW(builder.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(builder.add(0, 2, 1.0), std::out_of_range);
}

TEST(CsrMatrix, MultiplyMatchesManual) {
  TripletBuilder builder(2);
  builder.add(0, 0, 2.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, 3.0);
  const CsrMatrix m = builder.build();
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
  const CsrMatrix m = builder.build();
  const Vector y = m.multiply({1.0, 1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

}  // namespace
}  // namespace oftec::la
