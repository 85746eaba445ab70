#include <gtest/gtest.h>

#include "la/dense_matrix.h"
#include "la/sparse.h"
#include "util/rng.h"

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

TEST(CsrMatrix, Bandwidths) {
  TripletBuilder builder(5);
  builder.add(0, 3, 1.0);  // ku = 3
  builder.add(4, 2, 1.0);  // kl = 2
  const auto [kl, ku] = builder.build().bandwidths();
  EXPECT_EQ(kl, 2u);
  EXPECT_EQ(ku, 3u);
}

TEST(CsrMatrix, ToBandedRoundTrip) {
  util::Rng rng(5);
  TripletBuilder builder(10);
  for (std::size_t i = 0; i < 10; ++i) {
    builder.add(i, i, rng.uniform(1.0, 2.0));
    if (i + 2 < 10) builder.add(i, i + 2, rng.uniform(-1.0, 1.0));
    if (i >= 1) builder.add(i, i - 1, rng.uniform(-1.0, 1.0));
  }
  const CsrMatrix m = builder.build();
  const auto [kl, ku] = m.bandwidths();
  const BandedMatrix band = m.to_banded(kl, ku);
  const Vector x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_LT(max_abs_diff(band.multiply(x), m.multiply(x)), 1e-14);
}

TEST(CsrMatrix, ToBandedOutsideBandThrows) {
  TripletBuilder builder(4);
  builder.add(0, 3, 1.0);
  const CsrMatrix m = builder.build();
  EXPECT_THROW((void)m.to_banded(0, 1), std::invalid_argument);
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
