// The banded Cholesky, la::BandedCholeskyNumeric (la/split_cholesky.h):
// solves, rejects what is not SPD or not symmetric-banded, and matches the
// pivoted LU on SPD bands.
#include "la/split_cholesky.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "la/banded_lu.h"
#include "tests/la/golden_systems.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

using testing::factor_cholesky;

/// Random SPD banded matrix: diagonally dominant symmetric band.
BandedMatrix make_spd_band(std::size_t n, std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  BandedMatrix a(n, k, k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_hi = std::min(n - 1, i + k);
    for (std::size_t j = i + 1; j <= j_hi; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    const std::size_t j_lo = i > k ? i - k : 0;
    const std::size_t j_hi = std::min(n - 1, i + k);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      if (j != i) off += std::abs(a.get(i, j));
    }
    a.at(i, i) = off + 1.0;
  }
  return a;
}

TEST(BandedCholesky, SolvesTridiagonalPoisson) {
  const std::size_t n = 12;
  BandedMatrix a(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, i) = 2.0;
    if (i + 1 < n) {
      a.at(i, i + 1) = -1.0;
      a.at(i + 1, i) = -1.0;
    }
  }
  const Vector b(n, 1.0);
  const BandedCholeskyNumeric chol = factor_cholesky(a);
  const Vector x = chol.solve(b);
  EXPECT_LT(max_abs_diff(a.multiply(x), b), 1e-10);
  EXPECT_GT(chol.min_diagonal(), 0.0);
}

TEST(BandedCholesky, RejectsAsymmetricBandwidths) {
  const BandedMatrix a(4, 2, 1);
  EXPECT_THROW((void)BandedCholeskySymbolic::analyze(a), std::invalid_argument);
  BandedCholeskyNumeric chol(std::make_shared<const BandedCholeskySymbolic>(
      a.size(), a.lower_bandwidth()));
  EXPECT_THROW(chol.refactorize(a), std::invalid_argument);
}

TEST(BandedCholesky, RejectsIndefiniteMatrix) {
  BandedMatrix a(3, 1, 1);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -2.0;  // negative diagonal — not PD
  a.at(2, 2) = 1.0;
  EXPECT_THROW((void)factor_cholesky(a), std::runtime_error);
}

TEST(BandedCholesky, RejectsPositiveSemidefinite) {
  // Singular SPD-looking matrix (rank deficient).
  BandedMatrix a(2, 1, 1);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 1.0;
  EXPECT_THROW((void)factor_cholesky(a), std::runtime_error);
}

TEST(BandedCholesky, SolveSizeChecked) {
  const BandedMatrix a = make_spd_band(5, 1, 3);
  const BandedCholeskyNumeric chol = factor_cholesky(a);
  EXPECT_THROW((void)chol.solve(Vector(4, 1.0)), std::invalid_argument);
}

class CholeskyVsLuTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CholeskyVsLuTest, MatchesPivotedLuOnSpdBands) {
  const auto [n, k] = GetParam();
  const BandedMatrix a = make_spd_band(n, k, 17 * n + k);
  util::Rng rng(n + k);
  Vector b(n);
  for (double& v : b) v = rng.uniform(-4.0, 4.0);

  const Vector x_chol = factor_cholesky(a).solve(b);
  const Vector x_lu = solve_banded(a, b);
  EXPECT_LT(max_abs_diff(x_chol, x_lu), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CholeskyVsLuTest,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(10, 2),
                      std::make_tuple(20, 3), std::make_tuple(30, 5),
                      std::make_tuple(50, 8), std::make_tuple(64, 1),
                      std::make_tuple(15, 14)));

}  // namespace
}  // namespace oftec::la
