// la::BandedFactor: the one "Cholesky, else pivoted LU" policy behind every
// direct thermal solve. Its result must be bit-identical to the
// factorization it picks, fresh or refactored, staged or from a full band.
#include "la/banded_factor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/banded_lu.h"
#include "tests/la/golden_systems.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

using testing::factor_cholesky;

/// Random symmetric band matrix whose diagonal is each row's off-diagonal
/// absolute sum plus `shift`: shift > 0 makes it strictly diagonally
/// dominant, hence SPD.
BandedMatrix make_symmetric_band(std::size_t n, std::size_t k,
                                 std::uint64_t seed, double shift) {
  util::Rng rng(seed);
  BandedMatrix a(n, k, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j <= std::min(n - 1, i + k); ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = i > k ? i - k : 0; j <= std::min(n - 1, i + k);
         ++j) {
      if (j != i) off += std::abs(a.get(i, j));
    }
    a.at(i, i) = off + shift;
  }
  return a;
}

/// An indefinite but nonsingular symmetric matrix: an SPD band with one
/// strongly negative diagonal entry midway.
BandedMatrix make_indefinite_band(std::size_t n, std::size_t k,
                                  std::uint64_t seed) {
  BandedMatrix a = make_symmetric_band(n, k, seed, 1.0);
  a.at(n / 2, n / 2) = -3.0 * (static_cast<double>(k) + 1.0);
  return a;
}

Vector make_rhs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Vector b(n);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  return b;
}

/// a's lower band in the staging layout of BandedFactor::refactorize:
/// column j at j·(k+1), diagonal first, zero past the matrix edge.
Vector lower_band_of(const BandedMatrix& a) {
  const std::size_t n = a.size();
  const std::size_t k = a.lower_bandwidth();
  Vector lower((k + 1) * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t r = 0; r <= k && j + r < n; ++r) {
      lower[j * (k + 1) + r] = a.get(j + r, j);
    }
  }
  return lower;
}

void expect_same_bits(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(BandedFactor, SpdMatrixTakesCholeskyBitIdentically) {
  const BandedMatrix a = make_symmetric_band(40, 5, 7, 1.0);
  const Vector b = make_rhs(40, 8);
  const BandedFactor f(a);
  EXPECT_EQ(f.kind(), BandedFactor::Kind::kCholesky);
  expect_same_bits(f.solve(b), factor_cholesky(a).solve(b));
}

TEST(BandedFactor, IndefiniteMatrixFallsBackToLuBitIdentically) {
  const BandedMatrix a = make_indefinite_band(40, 5, 9);
  EXPECT_THROW((void)factor_cholesky(a), std::runtime_error);
  const Vector b = make_rhs(40, 10);
  const BandedFactor f(a);
  EXPECT_EQ(f.kind(), BandedFactor::Kind::kLu);
  const Vector x = f.solve(b);
  expect_same_bits(x, BandedLu(a).solve(b));
  EXPECT_LT(max_abs_diff(a.multiply(x), b), 1e-9);
}

TEST(BandedFactor, RefactorizeBitIdenticalToFreshFactor) {
  // One factor object circulates through SPD → indefinite → SPD matrices;
  // each refactorization reproduces a fresh factor's bits, and a failed
  // (singular) one leaves it invalid until the next success.
  const BandedMatrix spd = make_symmetric_band(30, 4, 11, 0.5);
  const BandedMatrix indefinite = make_indefinite_band(30, 4, 12);
  const BandedMatrix spd2 = make_symmetric_band(30, 4, 13, 2.0);
  BandedMatrix singular(30, 4, 4);
  const Vector b = make_rhs(30, 14);

  BandedFactor f;
  EXPECT_FALSE(f.valid());
  Vector x = b;
  EXPECT_THROW(f.solve_in_place(x), std::logic_error);
  for (const BandedMatrix* a : {&spd, &indefinite, &spd2}) {
    f.refactorize(*a);
    EXPECT_TRUE(f.valid());
    x = b;
    f.solve_in_place(x);
    expect_same_bits(x, BandedFactor(*a).solve(b));
  }
  EXPECT_THROW(f.refactorize(singular), std::runtime_error);
  EXPECT_FALSE(f.valid());
  EXPECT_THROW(f.solve_in_place(x), std::logic_error);
  f.refactorize(spd);
  expect_same_bits(f.solve(b), BandedFactor(spd).solve(b));
}

TEST(BandedFactor, StagedRefactorizeMatchesFullBandOnBothPaths) {
  // The stepper's path: stage the lower band in place, build the full band
  // only when Cholesky fails. Both must equal factoring the full matrix.
  for (const bool spd : {true, false}) {
    const BandedMatrix a = spd ? make_symmetric_band(25, 6, 21, 1.0)
                               : make_indefinite_band(25, 6, 22);
    const Vector lower = lower_band_of(a);
    bool built_full = false;
    BandedFactor f;
    f.refactorize(
        a.size(), a.lower_bandwidth(),
        [&](double* out) { std::copy(lower.begin(), lower.end(), out); },
        [&] {
          built_full = true;
          return a;
        });
    EXPECT_EQ(built_full, !spd);
    EXPECT_EQ(f.kind(), spd ? BandedFactor::Kind::kCholesky
                            : BandedFactor::Kind::kLu);
    const Vector b = make_rhs(25, 23);
    expect_same_bits(f.solve(b), BandedFactor(a).solve(b));
  }
}

TEST(BandedFactor, RejectsAsymmetricBandwidths) {
  const BandedMatrix a(4, 2, 1);
  EXPECT_THROW(BandedFactor{a}, std::invalid_argument);
}

}  // namespace
}  // namespace oftec::la
