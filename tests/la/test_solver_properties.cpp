// Cross-solver property tests on random SPD banded systems.
//
// The solve engine routes one linear system through several solvers
// depending on context (warm CG inside Newton, BandedFactor on the direct
// fallback, dense LU in reference tests); these properties pin down that the
// choice of solver never changes the answer beyond floating-point noise:
//
//   * BandedFactor, the split symbolic+numeric Cholesky, dense LU, and CG
//     all agree to 1e-9 on the same random SPD banded system;
//   * refactorize() after a diagonal perturbation (the shape of every
//     operating-point change in the thermal matrix) is bit-identical to a
//     fresh factorization of the perturbed matrix — the invariant that makes
//     the engine's factor cache safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>

#include "la/banded_factor.h"
#include "la/banded_matrix.h"
#include "la/dense_lu.h"
#include "la/dense_matrix.h"
#include "la/iterative.h"
#include "la/split_cholesky.h"
#include "la/sparse.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

/// Random symmetric banded matrix made SPD by strict diagonal dominance.
BandedMatrix random_spd_banded(std::size_t n, std::size_t k,
                               util::Rng& rng) {
  BandedMatrix a(n, k, k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hi = std::min(n - 1, i + k);
    for (std::size_t j = i + 1; j <= hi; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    const std::size_t lo = i < k ? 0 : i - k;
    const std::size_t hi = std::min(n - 1, i + k);
    for (std::size_t j = lo; j <= hi; ++j) {
      if (j != i) off += std::abs(a.get(i, j));
    }
    a.at(i, i) = off + rng.uniform(0.5, 2.0);
  }
  return a;
}

Vector random_vector(std::size_t n, util::Rng& rng) {
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-10.0, 10.0);
  return b;
}

DenseMatrix to_dense(const BandedMatrix& a) {
  DenseMatrix d(a.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) d.at(i, j) = a.get(i, j);
  }
  return d;
}

SparseMatrix to_sparse(const BandedMatrix& a) {
  TripletBuilder builder(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a.get(i, j) != 0.0) builder.add(i, j, a.get(i, j));
    }
  }
  return builder.build();
}

/// The monolithic Cholesky: BandedFactor on an SPD matrix.
Vector cholesky_solve(const BandedMatrix& a, const Vector& b) {
  const BandedFactor factor(a);
  EXPECT_EQ(factor.kind(), BandedFactor::Kind::kCholesky);
  return factor.solve(b);
}

double max_abs_diff(const Vector& x, const Vector& y) {
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m = std::max(m, std::abs(x[i] - y[i]));
  }
  return m;
}

TEST(SolverProperties, AllSolversAgreeOnRandomSpdSystems) {
  util::Rng rng(0xC001D00DULL);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 20 + rng.uniform_index(41);        // 20..60
    const std::size_t k = 1 + rng.uniform_index(std::min<std::size_t>(n / 2, 9));
    const BandedMatrix a = random_spd_banded(n, k, rng);
    const Vector b = random_vector(n, rng);

    const Vector x_chol = cholesky_solve(a, b);

    BandedCholeskyNumeric split(
        std::make_shared<const BandedCholeskySymbolic>(
            BandedCholeskySymbolic::analyze(a)));
    split.refactorize(a);
    const Vector x_split = split.solve(b);

    const Vector x_lu = DenseLu(to_dense(a)).solve(b);

    IterativeOptions cg_opts;
    cg_opts.tolerance = 1e-13;
    cg_opts.max_iterations = 20 * n;
    const IterativeResult cg = solve_cg(to_sparse(a), b, cg_opts);
    ASSERT_TRUE(cg.converged) << "trial " << trial;

    EXPECT_LT(max_abs_diff(x_chol, x_split), 1e-9) << "trial " << trial;
    EXPECT_LT(max_abs_diff(x_chol, x_lu), 1e-9) << "trial " << trial;
    EXPECT_LT(max_abs_diff(x_chol, cg.x), 1e-9) << "trial " << trial;
  }
}

TEST(SolverProperties, SplitCholeskyMatchesMonolithicExactly) {
  // Identical arithmetic in identical order: solutions must agree bit for
  // bit, not just to tolerance.
  util::Rng rng(0xBEEF5EEDULL);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 30 + rng.uniform_index(31);
    const std::size_t k = 1 + rng.uniform_index(6);
    const BandedMatrix a = random_spd_banded(n, k, rng);
    const Vector b = random_vector(n, rng);

    BandedCholeskyNumeric split(
        std::make_shared<const BandedCholeskySymbolic>(
            BandedCholeskySymbolic::analyze(a)));
    split.refactorize(a);

    const Vector x_mono = cholesky_solve(a, b);
    const Vector x_split = split.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_mono[i], x_split[i]) << "trial " << trial << " i=" << i;
    }
  }
}

TEST(SolverProperties, RefactorizeAfterPerturbationEqualsFresh) {
  // The engine reuses one BandedCholeskyNumeric across operating points,
  // refactorizing in place as diagonals move. A reused factor must be
  // indistinguishable from a fresh one.
  util::Rng rng(0xFACE0FF5ULL);
  const std::size_t n = 50;
  const std::size_t k = 5;
  BandedMatrix a = random_spd_banded(n, k, rng);
  const Vector b = random_vector(n, rng);

  const auto symbolic = std::make_shared<const BandedCholeskySymbolic>(
      BandedCholeskySymbolic::analyze(a));
  BandedCholeskyNumeric reused(symbolic);
  reused.refactorize(a);

  for (int step = 0; step < 8; ++step) {
    // Diagonal-only perturbation — the shape of every (ω, I_TEC, leakage)
    // stamp in the thermal matrix. Keep it positive to preserve dominance.
    for (std::size_t i = 0; i < n; ++i) {
      a.at(i, i) += rng.uniform(0.0, 0.5);
    }
    reused.refactorize(a);
    ASSERT_TRUE(reused.factorized());

    BandedCholeskyNumeric fresh(symbolic);
    fresh.refactorize(a);
    EXPECT_EQ(reused.min_diagonal(), fresh.min_diagonal()) << "step " << step;

    const Vector x_reused = reused.solve(b);
    const Vector x_fresh = fresh.solve(b);
    const Vector x_mono = cholesky_solve(a, b);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_reused[i], x_fresh[i]) << "step " << step << " i=" << i;
      ASSERT_EQ(x_reused[i], x_mono[i]) << "step " << step << " i=" << i;
    }
  }
}

TEST(SolverProperties, SplitCholeskyRejectsIndefiniteAndRecovers) {
  util::Rng rng(0x5EEDBA11ULL);
  const std::size_t n = 24;
  const std::size_t k = 3;
  const BandedMatrix good = random_spd_banded(n, k, rng);
  BandedMatrix bad = good;
  bad.at(n / 2, n / 2) = -100.0;  // force a negative pivot

  BandedCholeskyNumeric numeric(
      std::make_shared<const BandedCholeskySymbolic>(
          BandedCholeskySymbolic::analyze(good)));
  EXPECT_THROW(numeric.refactorize(bad), std::runtime_error);
  EXPECT_FALSE(numeric.factorized());
  EXPECT_THROW((void)numeric.solve(random_vector(n, rng)), std::logic_error);

  // A failed refactorization must not poison the workspace.
  numeric.refactorize(good);
  ASSERT_TRUE(numeric.factorized());
  const Vector b = random_vector(n, rng);
  const Vector x_mono = cholesky_solve(good, b);
  const Vector x_split = numeric.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_mono[i], x_split[i]);
}

}  // namespace
}  // namespace oftec::la
