#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "la/banded_lu.h"
#include "la/banded_matrix.h"
#include "la/dense_lu.h"
#include "la/dense_matrix.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

TEST(BandedMatrix, InBandPredicate) {
  const BandedMatrix a(5, 1, 2);
  EXPECT_TRUE(a.in_band(2, 2));
  EXPECT_TRUE(a.in_band(3, 2));   // one sub-diagonal
  EXPECT_FALSE(a.in_band(4, 2));  // two below — outside
  EXPECT_TRUE(a.in_band(0, 2));   // two above — inside ku = 2
  EXPECT_FALSE(a.in_band(0, 4));
  EXPECT_FALSE(a.in_band(5, 0));  // out of matrix
}

TEST(BandedMatrix, StorageAllowsPivotFillIn) {
  const BandedMatrix a(6, 2, 1);
  // Fill-in region: up to ku + kl = 3 super-diagonals.
  EXPECT_TRUE(a.in_storage(0, 3));
  EXPECT_FALSE(a.in_storage(0, 4));
  EXPECT_FALSE(a.in_band(0, 3));
}

TEST(BandedMatrix, AtOutsideBandThrows) {
  BandedMatrix a(4, 1, 1);
  EXPECT_THROW((void)a.at(3, 0), std::out_of_range);
  EXPECT_NO_THROW((void)a.at(1, 0));
}

TEST(BandedMatrix, GetOutsideBandReadsZero) {
  BandedMatrix a(4, 1, 1);
  a.at(1, 0) = 5.0;
  EXPECT_DOUBLE_EQ(a.get(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.get(3, 0), 0.0);
  EXPECT_THROW((void)a.get(4, 0), std::out_of_range);
}

TEST(BandedMatrix, MultiplyMatchesDense) {
  BandedMatrix a(4, 1, 1);
  DenseMatrix d(4, 4);
  util::Rng rng(3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (!a.in_band(i, j)) continue;
      const double v = rng.uniform(-2.0, 2.0);
      a.at(i, j) = v;
      d(i, j) = v;
    }
  }
  const Vector x = {1.0, -2.0, 0.5, 3.0};
  EXPECT_LT(max_abs_diff(a.multiply(x), d.multiply(x)), 1e-14);
}

TEST(BandedLu, SolvesTridiagonalSystem) {
  // Classic -1/2/-1 Poisson matrix.
  const std::size_t n = 10;
  BandedMatrix a(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, i) = 2.0;
    if (i + 1 < n) {
      a.at(i, i + 1) = -1.0;
      a.at(i + 1, i) = -1.0;
    }
  }
  Vector b(n, 1.0);
  const Vector x = solve_banded(a, b);
  const Vector ax = a.multiply(x);
  EXPECT_LT(max_abs_diff(ax, b), 1e-10);
}

TEST(BandedLu, RequiresPivotingToBeStable) {
  // Small pivot on the diagonal — unpivoted elimination would blow up.
  BandedMatrix a(3, 1, 1);
  a.at(0, 0) = 1e-14;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 1.0;
  a.at(1, 2) = 1.0;
  a.at(2, 1) = 1.0;
  a.at(2, 2) = 3.0;
  const Vector b = {1.0, 2.0, 3.0};
  const Vector x = solve_banded(a, b);
  const Vector ax = a.multiply(x);
  EXPECT_LT(max_abs_diff(ax, b), 1e-9);
}

TEST(BandedLu, SingularThrows) {
  BandedMatrix a(2, 1, 1);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 1.0;
  EXPECT_THROW(BandedLu{a}, std::runtime_error);
}

TEST(BandedLu, ReportsMinimumPivot) {
  BandedMatrix a(2, 0, 0);
  a.at(0, 0) = 4.0;
  a.at(1, 1) = 0.25;
  const BandedLu lu(a);
  EXPECT_DOUBLE_EQ(lu.min_abs_pivot(), 0.25);
}

TEST(BandedLu, InvalidFactorRefusesToSolveAndRecovers) {
  BandedLu lu;
  EXPECT_FALSE(lu.valid());
  Vector x = {1.0, 2.0};
  EXPECT_THROW(lu.solve_in_place(x), std::logic_error);

  BandedMatrix singular(2, 1, 1);
  singular.at(0, 0) = 1.0;
  singular.at(0, 1) = 1.0;
  singular.at(1, 0) = 1.0;
  singular.at(1, 1) = 1.0;
  EXPECT_THROW(lu = BandedLu(singular), std::runtime_error);
  EXPECT_FALSE(lu.valid());
  EXPECT_THROW(lu.solve_in_place(x), std::logic_error);

  BandedMatrix good(2, 1, 1);
  good.at(0, 0) = 2.0;
  good.at(1, 1) = 3.0;
  lu = BandedLu(std::move(good));
  EXPECT_TRUE(lu.valid());
  Vector b = {4.0, 9.0};
  lu.solve_in_place(b);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
  EXPECT_DOUBLE_EQ(b[1], 3.0);
}

/// Property: banded LU agrees with dense LU on random banded systems across
/// bandwidth combinations.
class BandedVsDenseTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(BandedVsDenseTest, MatchesDenseSolver) {
  const auto [n, kl, ku] = GetParam();
  util::Rng rng(n * 100 + kl * 10 + ku);
  BandedMatrix a(n, kl, ku);
  DenseMatrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!a.in_band(i, j)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      a.at(i, j) = v;
      d(i, j) = v;
    }
    // Keep it comfortably nonsingular without making pivoting trivial.
    a.at(i, i) += 3.0;
    d(i, i) += 3.0;
  }
  Vector b(n);
  for (double& v : b) v = rng.uniform(-10.0, 10.0);

  const Vector x_band = solve_banded(a, b);
  const Vector x_dense = solve_dense(d, b);
  EXPECT_LT(max_abs_diff(x_band, x_dense), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    BandSweep, BandedVsDenseTest,
    ::testing::Values(std::make_tuple(5, 1, 1), std::make_tuple(8, 2, 1),
                      std::make_tuple(8, 1, 2), std::make_tuple(12, 3, 3),
                      std::make_tuple(20, 4, 2), std::make_tuple(30, 5, 5),
                      std::make_tuple(40, 1, 1), std::make_tuple(25, 7, 3),
                      std::make_tuple(16, 15, 15)));

}  // namespace
}  // namespace oftec::la
