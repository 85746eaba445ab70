#include <gtest/gtest.h>

#include <cmath>

#include "la/dense_lu.h"
#include "la/dense_matrix.h"
#include "la/iterative.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

/// Random diagonally dominant SPD matrix in both sparse and dense form.
struct SpdPair {
  SparseMatrix sparse;
  DenseMatrix dense;
};

SpdPair make_spd(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  DenseMatrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.3) {
        const double v = rng.uniform(-1.0, 1.0);
        d(i, j) = v;
        d(j, i) = v;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) off += std::abs(d(i, j));
    }
    d(i, i) = off + 1.0;
  }
  TripletBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d(i, j) != 0.0) builder.add(i, j, d(i, j));
    }
  }
  return {builder.build(), std::move(d)};
}

class CgTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgTest, MatchesDirectSolveOnSpd) {
  const std::size_t n = GetParam();
  const SpdPair sys = make_spd(n, 77 + n);
  util::Rng rng(n);
  Vector b(n);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);

  const IterativeResult r = solve_cg(sys.sparse, b);
  ASSERT_TRUE(r.converged);
  const Vector x_ref = solve_dense(sys.dense, b);
  EXPECT_LT(max_abs_diff(r.x, x_ref), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgTest,
                         ::testing::Values(1, 2, 5, 10, 25, 50, 100));

TEST(Iterative, ZeroRhsConvergesImmediately) {
  const SpdPair sys = make_spd(8, 1);
  const Vector b(8, 0.0);
  const IterativeResult cg = solve_cg(sys.sparse, b);
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, 0u);
  EXPECT_LT(norm_inf(cg.x), 1e-300);
}

TEST(Iterative, ResidualNormIsReported) {
  const SpdPair sys = make_spd(20, 2);
  Vector b(20, 1.0);
  const IterativeResult r = solve_cg(sys.sparse, b);
  ASSERT_TRUE(r.converged);
  Vector res = sys.sparse.multiply(r.x);
  axpy(-1.0, b, res);
  EXPECT_NEAR(norm2(res), r.residual_norm, 1e-8);
}

}  // namespace
}  // namespace oftec::la
