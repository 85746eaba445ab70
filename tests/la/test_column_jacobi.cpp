// Z-column block-Jacobi preconditioner (la/column_jacobi.h): exact on
// matrices that are themselves block-tridiagonal by column, 1/d on
// singletons, failure on non-positive pivots, r·z bitwise the backend dot,
// and fewer CG iterations than diagonal Jacobi on a stacked grid.
#include "la/column_jacobi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "la/backend.h"
#include "la/iterative.h"
#include "la/sparse.h"
#include "tests/la/layered_systems.h"

namespace oftec::la {
namespace {

using testing::LayeredCase;
using testing::make_layered_case;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

ColumnBlockSymbolic analyze(const LayeredCase& c) {
  return ColumnBlockSymbolic::analyze(c.a, c.cells, c.slab_first);
}

TEST(ColumnBlockJacobi, AnalyzeFindsSlabsAndSingletons) {
  const LayeredCase c = make_layered_case(11, 3, 2, 9, 0.1);
  const ColumnBlockSymbolic s = analyze(c);
  EXPECT_EQ(s.size(), c.a.size());
  EXPECT_EQ(s.slabs(), 9u);
  EXPECT_EQ(s.singletons(), c.rings);
  // The thermal stack's numbering: rings after the top three slabs.
  EXPECT_EQ(c.rings, (std::vector<std::size_t>{42, 49, 56}));
}

TEST(ColumnBlockJacobi, ExactSolveOnColumnBlockTridiagonalMatrix) {
  for (const std::size_t slabs : {1u, 2u, 3u, 9u}) {
    const LayeredCase c = make_layered_case(20 + slabs, 4, 3, slabs, 0.0);
    const ColumnBlockSymbolic s = analyze(c);
    ColumnBlockJacobi m;
    ASSERT_TRUE(m.factor(s, c.a)) << slabs;
    Vector z(c.a.size());
    (void)m.apply(c.b.data(), z.data());
    // M = A here, so z solves A·z = b to round-off.
    const Vector az = c.a.multiply(z);
    for (std::size_t i = 0; i < z.size(); ++i) {
      EXPECT_NEAR(az[i], c.b[i], 1e-12) << "slabs " << slabs << " node " << i;
    }
  }
}

TEST(ColumnBlockJacobi, SingletonsGetInverseDiagonal) {
  const LayeredCase c = make_layered_case(31, 4, 4, 9, 0.2);
  const ColumnBlockSymbolic s = analyze(c);
  ColumnBlockJacobi m;
  ASSERT_TRUE(m.factor(s, c.a));
  Vector z(c.a.size());
  (void)m.apply(c.b.data(), z.data());
  for (const std::size_t ring : c.rings) {
    EXPECT_EQ(bits(z[ring]), bits(c.b[ring] * (1.0 / c.a.get(ring, ring))))
        << "ring " << ring;
  }
}

TEST(ColumnBlockJacobi, WithoutSlabsIsDiagonalJacobiBitForBit) {
  // Every node a singleton: the preconditioner must be diagonal Jacobi, and
  // so must the CG run it drives.
  const LayeredCase c = make_layered_case(37, 5, 4, 9, 0.3);
  const ColumnBlockSymbolic s = ColumnBlockSymbolic::analyze(c.a, 0, {});
  EXPECT_EQ(s.singletons().size(), c.a.size());
  ColumnBlockJacobi m;
  ASSERT_TRUE(m.factor(s, c.a));

  const std::size_t n = c.a.size();
  Vector inv_d(n);
  const Vector d = c.a.diagonal();
  for (std::size_t i = 0; i < n; ++i) inv_d[i] = 1.0 / d[i];
  Vector z_ref(n), z(n);
  const double rz_ref =
      backend().precond_dot(n, inv_d.data(), c.b.data(), z_ref.data());
  const double rz = m.apply(c.b.data(), z.data());
  EXPECT_EQ(bits(rz_ref), bits(rz));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits(z_ref[i]), bits(z[i]));

  IterativeOptions with;
  with.preconditioner = &m;
  const IterativeResult a = solve_cg(c.a, c.b);
  const IterativeResult b = solve_cg(c.a, c.b, with);
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(bits(a.x[i]), bits(b.x[i]));
}

TEST(ColumnBlockJacobi, NonPositivePivotReportsFailure) {
  // Column 0 of a two-slab stack: [[1, −2], [−2, 1]] has pivots 1, −3.
  TripletBuilder t(4);
  t.add(0, 0, 1.0);
  t.add(2, 2, 1.0);
  t.add(0, 2, -2.0);
  t.add(2, 0, -2.0);
  t.add(1, 1, 1.0);
  t.add(3, 3, 1.0);
  const SparseMatrix indefinite = t.build();
  const ColumnBlockSymbolic s =
      ColumnBlockSymbolic::analyze(indefinite, 2, {0, 2});
  ColumnBlockJacobi m;
  EXPECT_FALSE(m.factor(s, indefinite));
  EXPECT_EQ(m.size(), 0u);

  // solve_cg refuses a preconditioner whose factor failed.
  IterativeOptions opts;
  opts.preconditioner = &m;
  EXPECT_THROW((void)solve_cg(indefinite, Vector(4, 1.0), opts),
               std::invalid_argument);

  // A zero first pivot, a negative singleton and a NaN diagonal fail too.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    TripletBuilder u(3);
    u.add(0, 0, 2.0);
    u.add(1, 1, 2.0);
    u.add(2, 2, bad);
    const SparseMatrix a = u.build();
    const ColumnBlockSymbolic as_slab =
        ColumnBlockSymbolic::analyze(a, 1, {2, 0});
    const ColumnBlockSymbolic as_singleton =
        ColumnBlockSymbolic::analyze(a, 1, {0, 1});
    EXPECT_FALSE(m.factor(as_slab, a)) << bad;
    EXPECT_FALSE(m.factor(as_singleton, a)) << bad;
  }
}

TEST(ColumnBlockJacobi, FusedDotIsBackendDotOfReturnedZ) {
  // Under whichever backend OFTEC_LA_BACKEND selects; the parity suite
  // compares the backends against each other.
  const BackendOps& ops = backend();
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const LayeredCase c = make_layered_case(seed, 7, 5, 9, 0.05);
    const ColumnBlockSymbolic s = analyze(c);
    ColumnBlockJacobi m;
    ASSERT_TRUE(m.factor(s, c.a));
    Vector z(c.a.size());
    const double rz = m.apply(c.b.data(), z.data());
    EXPECT_EQ(bits(rz), bits(ops.dot(z.size(), c.b.data(), z.data())))
        << ops.name << " seed " << seed;
  }
}

TEST(ColumnBlockJacobi, CgNeedsFewerIterationsThanDiagonalJacobi) {
  const LayeredCase c = make_layered_case(53, 10, 10, 9, 0.05);
  const ColumnBlockSymbolic s = analyze(c);
  ColumnBlockJacobi m;
  ASSERT_TRUE(m.factor(s, c.a));

  IterativeOptions diag;
  diag.tolerance = 1e-10;
  IterativeOptions column = diag;
  column.preconditioner = &m;
  const IterativeResult d = solve_cg(c.a, c.b, diag);
  const IterativeResult k = solve_cg(c.a, c.b, column);
  ASSERT_TRUE(d.converged);
  ASSERT_TRUE(k.converged);
  EXPECT_LT(2 * k.iterations, d.iterations)
      << "column " << k.iterations << " vs diagonal " << d.iterations;
  EXPECT_LT(max_abs_diff(d.x, k.x), 1e-8);
}

TEST(ColumnBlockJacobi, RefactorReusesStorageAcrossValueChanges) {
  // The engine's pattern: one symbolic, many numeric refactors as diagonal
  // values move. Each refactor must equal a fresh factor bit for bit.
  LayeredCase c = make_layered_case(61, 6, 6, 9, 0.1);
  const ColumnBlockSymbolic s = analyze(c);
  ColumnBlockJacobi reused;
  ASSERT_TRUE(reused.factor(s, c.a));
  for (int round = 0; round < 3; ++round) {
    std::vector<double>& v = c.a.mutable_values();
    for (std::size_t r = 0; r < c.a.size(); ++r) {
      v[c.a.position(r, r)] *= 1.0 + 0.1 * (round + 1);
    }
    ColumnBlockJacobi fresh;
    ASSERT_TRUE(reused.factor(s, c.a));
    ASSERT_TRUE(fresh.factor(s, c.a));
    Vector z1(c.a.size()), z2(c.a.size());
    EXPECT_EQ(bits(reused.apply(c.b.data(), z1.data())),
              bits(fresh.apply(c.b.data(), z2.data())));
    for (std::size_t i = 0; i < z1.size(); ++i) {
      ASSERT_EQ(bits(z1[i]), bits(z2[i])) << "round " << round;
    }
  }
}

TEST(ColumnBlockJacobi, RejectsBadSlabsAndMismatchedMatrices) {
  const LayeredCase c = make_layered_case(71, 3, 3, 4, 0.1);
  const std::size_t n = c.a.size();
  EXPECT_THROW((void)ColumnBlockSymbolic::analyze(c.a, 9, {n - 8}),
               std::invalid_argument);
  EXPECT_THROW((void)ColumnBlockSymbolic::analyze(c.a, 9, {0, 5}),
               std::invalid_argument);
  const ColumnBlockSymbolic s = analyze(c);
  const LayeredCase other = make_layered_case(72, 3, 3, 5, 0.1);
  ColumnBlockJacobi m;
  EXPECT_THROW((void)m.factor(s, other.a), std::invalid_argument);
}

}  // namespace
}  // namespace oftec::la
