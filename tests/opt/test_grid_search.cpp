#include "opt/grid_search.h"

#include <gtest/gtest.h>

#include "analytic_problems.h"

namespace oftec::opt {
namespace {

using testing::ConstrainedQuadratic;
using testing::Multimodal;
using testing::QuadraticBowl;
using testing::WalledBowl;

TEST(GridSearch, FindsGlobalMinimumOfMultimodal) {
  const Multimodal p;
  const OptResult r = solve_grid_search(p, 81);
  ASSERT_TRUE(r.feasible);
  // Global minimum of sin(3x)+0.1x² in [−2,2] sits near x ≈ −0.54.
  EXPECT_NEAR(r.x[0], -0.54, 0.06);
  EXPECT_NEAR(r.x[1], 0.0, 0.03);
}

TEST(GridSearch, RespectsConstraints) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_grid_search(p, 41);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.x[0] + r.x[1], 1.0 - 1e-9);
  EXPECT_NEAR(r.objective, 0.5, 0.05);
}

TEST(GridSearch, SkipsInfCells) {
  const WalledBowl p(0.5);
  const OptResult r = solve_grid_search(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.x[0], 0.5);
  EXPECT_TRUE(std::isfinite(r.objective));
}

TEST(GridSearch, VisitsExpectedCellCount) {
  const QuadraticBowl p(0.0, 0.0);
  const OptResult r = solve_grid_search(p, 11);
  EXPECT_EQ(r.iterations, 121u);
}

TEST(GridSearch, RejectsDegenerateGrid) {
  const QuadraticBowl p(0.0, 0.0);
  EXPECT_THROW((void)solve_grid_search(p, 1), std::invalid_argument);
}

}  // namespace
}  // namespace oftec::opt
