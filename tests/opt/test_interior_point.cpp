#include "comparators.h"

#include <gtest/gtest.h>

#include "analytic_problems.h"

namespace oftec::opt {
namespace {

using testing::ConstrainedQuadratic;
using testing::QuadraticBowl;

TEST(InteriorPoint, SolvesQuadraticBowl) {
  const QuadraticBowl p(1.0, -1.0);
  const OptResult r = solve_interior_point(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 5e-3);
  EXPECT_NEAR(r.x[1], -1.0, 5e-3);
}

TEST(InteriorPoint, StaysStrictlyInsideTheBox) {
  // Minimum on the boundary: barrier keeps the iterate inside, converging
  // toward it as μ shrinks.
  const QuadraticBowl p(7.0, 0.0);  // min beyond the ub = 5 wall
  const OptResult r = solve_interior_point(p, {0.0, 0.0});
  EXPECT_LT(r.x[0], 5.0);
  EXPECT_GT(r.x[0], 4.8);
}

TEST(InteriorPoint, SolvesConstrainedQuadratic) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_interior_point(p, {1.2, 1.2});
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 0.5, 0.02);
  EXPECT_NEAR(r.x[1], 0.5, 0.02);
}

TEST(InteriorPoint, InfeasibleStartReportsInfeasible) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_interior_point(p, {0.1, 0.1});
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.feasible);
}

TEST(InteriorPoint, TracksEvaluations) {
  const QuadraticBowl p(0.5, 0.5);
  const OptResult r = solve_interior_point(p, {0.0, 0.0});
  EXPECT_GT(r.evaluations, 10u);
  EXPECT_GT(r.iterations, 0u);
}

}  // namespace
}  // namespace oftec::opt
