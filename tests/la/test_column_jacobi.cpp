// Z-column block-Jacobi preconditioner (la/column_jacobi.h): exact on
// matrices that are themselves block-tridiagonal by column, 1/d on
// singletons, failure on non-positive pivots, r·z bitwise the backend dot,
// and fewer CG iterations than diagonal Jacobi on a stacked grid. With a
// coarse level: a symmetric positive definite M⁻¹, a coarse pivot that
// proves a matrix indefinite where every column block is SPD, and fewer CG
// iterations than column blocks alone; without one, the column-only bits.
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
#include "util/rng.h"

namespace oftec::la {
namespace {

using testing::LayeredCase;
using testing::make_layered_case;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

ColumnBlockSymbolic analyze(const LayeredCase& c) {
  return ColumnBlockSymbolic::analyze(c.a, c.cells, c.slab_first);
}

/// The thermal stack's coarse map over an nx×ny case of nine slabs: a 5×5
/// lateral partition crossed with three groups (slab 6, slab 8, the rest).
ColumnBlockSymbolic analyze_coarse(const LayeredCase& c, std::size_t nx,
                                   std::size_t ny) {
  CoarseMap map;
  for (std::size_t cell = 0; cell < c.cells; ++cell) {
    map.cell_aggregate.push_back(cell / nx * 5 / ny * 5 + cell % nx * 5 / nx);
  }
  for (std::size_t k = 0; k < c.slab_first.size(); ++k) {
    map.slab_group.push_back(k == 6 ? 1 : (k == 8 ? 2 : 0));
  }
  return ColumnBlockSymbolic::analyze(c.a, c.cells, c.slab_first, map);
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
    SparseMatrix::Values& v = c.a.mutable_values();
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

TEST(ColumnBlockJacobi, CoarseLevelIsSymmetricPositiveDefinite) {
  const LayeredCase c = make_layered_case(91, 10, 10, 9, 0.05);
  const ColumnBlockSymbolic s = analyze_coarse(c, 10, 10);
  EXPECT_EQ(s.coarse_size(), 78u);
  ColumnBlockJacobi m;
  ASSERT_TRUE(m.factor(s, c.a));
  const std::size_t n = c.a.size();
  util::Rng rng(92);
  for (int round = 0; round < 5; ++round) {
    Vector x(n), y(n), mx(n), my(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0);
      y[i] = rng.uniform(-1.0, 1.0);
    }
    // r·z > 0, and r·z is what apply() returns.
    const double xmx = m.apply(x.data(), mx.data());
    EXPECT_GT(xmx, 0.0) << round;
    EXPECT_EQ(bits(xmx), bits(backend().dot(n, x.data(), mx.data())));
    (void)m.apply(y.data(), my.data());
    double ymx = 0.0, xmy = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ymx += y[i] * mx[i];
      xmy += x[i] * my[i];
      scale += std::abs(y[i] * mx[i]) + std::abs(x[i] * my[i]);
    }
    EXPECT_NEAR(ymx, xmy, 1e-12 * scale) << round;
  }
}

TEST(ColumnBlockJacobi, CoarsePivotProvesAMatrixWithSpdColumnsIndefinite) {
  // Strong lateral coupling keeps every column block well away from
  // singular, while the laterally smooth mode — the constant vector — has a
  // Rayleigh quotient of only the small ambient terms. Shifting the
  // diagonal down by 0.5 leaves the column blocks SPD but makes that mode
  // negative, which only the coarse level sees.
  LayeredCase c = make_layered_case(93, 10, 10, 9, 1.0);
  const std::size_t n = c.a.size();
  for (std::size_t i = 0; i < n; ++i) {
    c.a.mutable_values()[c.a.position(i, i)] -= 0.5;
  }
  const Vector ones(n, 1.0);
  ASSERT_LT(backend().dot(n, ones.data(), c.a.multiply(ones).data()), 0.0);

  ColumnBlockJacobi m;
  EXPECT_TRUE(m.factor(analyze(c), c.a));
  EXPECT_FALSE(m.factor(analyze_coarse(c, 10, 10), c.a));
  EXPECT_EQ(m.size(), 0u);
}

TEST(ColumnBlockJacobi, WithoutCoarseMapKeepsTheColumnSweepBits) {
  // The column-only apply, spelled out column by column: the Thomas
  // recurrence of the slab sweeps, 1/d on the singletons. An empty
  // CoarseMap must give exactly these bits.
  const LayeredCase c = make_layered_case(94, 7, 6, 9, 0.1);
  const ColumnBlockSymbolic s = analyze(c);
  const ColumnBlockSymbolic empty =
      ColumnBlockSymbolic::analyze(c.a, c.cells, c.slab_first, CoarseMap{});
  EXPECT_EQ(s.coarse_size(), 0u);
  EXPECT_EQ(empty.coarse_size(), 0u);
  const std::size_t n = c.a.size();
  const std::size_t m = c.slab_first.size();
  Vector z_ref(n);
  for (std::size_t cell = 0; cell < c.cells; ++cell) {
    std::vector<double> pivot(m), l(m);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = c.slab_first[k] + cell;
      pivot[k] = c.a.get(i, i);
      double& zk = z_ref[i];
      zk = c.b[i];
      if (k > 0) {
        const std::size_t below = c.slab_first[k - 1] + cell;
        const double e = c.a.get(i, below);
        l[k] = e * (1.0 / pivot[k - 1]);
        pivot[k] -= l[k] * e;
        zk = c.b[i] - l[k] * z_ref[below];
      }
    }
    for (std::size_t k = m; k-- > 0;) {
      const std::size_t i = c.slab_first[k] + cell;
      z_ref[i] = k + 1 == m ? z_ref[i] * (1.0 / pivot[k])
                            : z_ref[i] * (1.0 / pivot[k]) -
                                  l[k + 1] * z_ref[c.slab_first[k + 1] + cell];
    }
  }
  for (const std::size_t ring : c.rings) {
    z_ref[ring] = c.b[ring] * (1.0 / c.a.get(ring, ring));
  }
  for (const ColumnBlockSymbolic* sym : {&s, &empty}) {
    ColumnBlockJacobi col;
    ASSERT_TRUE(col.factor(*sym, c.a));
    Vector z(n);
    (void)col.apply(c.b.data(), z.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(z_ref[i]), bits(z[i])) << "node " << i;
    }
  }
}

TEST(ColumnBlockJacobi, CoarseLevelCutsCgIterations) {
  for (const std::uint64_t seed : {95u, 96u}) {
    const LayeredCase c = make_layered_case(seed, 12, 12, 9, 0.5);
    const ColumnBlockSymbolic cs = analyze(c);
    const ColumnBlockSymbolic ks = analyze_coarse(c, 12, 12);
    ColumnBlockJacobi column, coarse;
    ASSERT_TRUE(column.factor(cs, c.a));
    ASSERT_TRUE(coarse.factor(ks, c.a));
    IterativeOptions opts;
    opts.tolerance = 1e-10;
    opts.preconditioner = &column;
    const IterativeResult a = solve_cg(c.a, c.b, opts);
    opts.preconditioner = &coarse;
    const IterativeResult b = solve_cg(c.a, c.b, opts);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_LT(b.iterations, a.iterations)
        << "seed " << seed << ": coarse " << b.iterations << " vs column "
        << a.iterations;
    EXPECT_LT(max_abs_diff(a.x, b.x), 1e-6);
  }
}

TEST(ColumnBlockJacobi, RejectsBadCoarseMaps) {
  const LayeredCase c = make_layered_case(97, 4, 4, 3, 0.1);
  const auto try_map = [&c](std::vector<std::size_t> aggregate,
                            std::vector<std::size_t> group) {
    (void)ColumnBlockSymbolic::analyze(
        c.a, c.cells, c.slab_first, {std::move(aggregate), std::move(group)});
  };
  const std::vector<std::size_t> quarters = {0, 0, 1, 1, 0, 0, 1, 1,
                                             2, 2, 3, 3, 2, 2, 3, 3};
  EXPECT_NO_THROW(try_map(quarters, {0, 1, 1}));
  EXPECT_THROW(try_map({0, 1}, {0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(try_map(quarters, {0, 1}), std::invalid_argument);
  std::vector<std::size_t> gap = quarters;
  gap[0] = 5;  // aggregate 4 is left empty
  EXPECT_THROW(try_map(gap, {0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(try_map(quarters, {0, 2, 2}), std::invalid_argument);
  // Aggregates over no slabs at all.
  EXPECT_THROW((void)ColumnBlockSymbolic::analyze(c.a, c.cells, {},
                                                  {quarters, {}}),
               std::invalid_argument);
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
