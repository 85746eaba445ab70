#include "opt/sqp.h"

#include <gtest/gtest.h>

#include "analytic_problems.h"

namespace oftec::opt {
namespace {

using testing::ConstrainedQuadratic;
using testing::QuadraticBowl;
using testing::Rosenbrock;
using testing::WalledBowl;

TEST(Sqp, SolvesQuadraticBowl) {
  const QuadraticBowl p(1.5, -2.0, 3.0);
  const OptResult r = solve_sqp(p, {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.5, 1e-3);
  EXPECT_NEAR(r.x[1], -2.0, 1e-3);
  EXPECT_NEAR(r.objective, 0.0, 1e-5);
}

TEST(Sqp, RespectsBoxBounds) {
  // Minimum outside the box → solution lands on the boundary.
  const QuadraticBowl p(7.0, 0.0);
  const OptResult r = solve_sqp(p, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 5.0, 1e-4);
}

TEST(Sqp, SolvesConstrainedQuadraticAtKktPoint) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_sqp(p, {1.5, 1.5});
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0], 0.5, 5e-3);
  EXPECT_NEAR(r.x[1], 0.5, 5e-3);
  EXPECT_NEAR(r.objective, 0.5, 1e-2);
}

TEST(Sqp, RecoversFeasibilityFromInfeasibleStart) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_sqp(p, {0.1, 0.1});  // violates x0+x1 ≥ 1
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-2);
}

TEST(Sqp, HandlesInfObjectiveRegions) {
  // The +inf wall is invisible to the quadratic model, so the solver cannot
  // slide along it perfectly — but it must make substantial progress toward
  // the wall-constrained optimum (0.5, 0) and never leave the finite region.
  const WalledBowl p(0.5);
  const OptResult r = solve_sqp(p, {1.5, 1.0});
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_GE(r.x[0], 0.5 - 1e-9);
  EXPECT_LT(r.x[0], 0.8);
  EXPECT_LT(r.x[1], 0.55);
  EXPECT_LT(r.objective, p.objective({1.5, 1.0}) * 0.35);
}

TEST(Sqp, InfStartReturnsImmediately) {
  const WalledBowl p(0.5);
  const OptResult r = solve_sqp(p, {0.1, 0.5});
  EXPECT_FALSE(std::isfinite(r.objective));
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Sqp, NavigatesRosenbrockValley) {
  const Rosenbrock p;
  SqpOptions opts;
  opts.max_iterations = 200;
  opts.step_tolerance = 1e-7;
  const OptResult r = solve_sqp(p, {-1.0, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 0.05);
  EXPECT_NEAR(r.x[1], 1.0, 0.1);
}

TEST(Sqp, EarlyStopPredicateCutsRun) {
  const QuadraticBowl p(0.0, 0.0);
  bool fired = false;
  const OptResult r = solve_sqp(
      p, {4.0, 4.0}, {},
      [&](const la::Vector&, double f) {
        if (f < 10.0) {
          fired = true;
          return true;
        }
        return false;
      });
  EXPECT_TRUE(fired);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.objective, 10.0);
}

/// Forwards to a QuadraticBowl and counts what the solver asks of it.
class CountingBowl final : public Problem {
 public:
  std::size_t dimension() const override { return bowl_.dimension(); }
  std::size_t constraint_count() const override { return 0; }
  const Bounds& bounds() const override { return bowl_.bounds(); }
  double objective(const la::Vector& x) const override {
    ++values;
    return bowl_.objective(x);
  }
  la::Vector constraints(const la::Vector& x) const override {
    ++values;
    return bowl_.constraints(x);
  }
  Gradients gradients(const la::Vector& x) const override {
    ++gradient_calls;
    return bowl_.gradients(x);
  }

  mutable std::size_t values = 0;
  mutable std::size_t gradient_calls = 0;

 private:
  QuadraticBowl bowl_{1.0, 1.0};
};

TEST(Sqp, CountsEvaluations) {
  // Gradients come from the problem's hook, so the result counts exactly
  // the values and gradients the solver requested — one gradient per
  // accepted point.
  const CountingBowl p;
  const OptResult r = solve_sqp(p, {0.0, 0.0});
  EXPECT_GT(r.evaluations, 0u);
  EXPECT_EQ(r.evaluations, p.values);
  EXPECT_GT(r.gradient_evaluations, 0u);
  EXPECT_EQ(r.gradient_evaluations, p.gradient_calls);
  EXPECT_LE(r.gradient_evaluations, r.iterations + 1);
}

TEST(Sqp, DimensionMismatchThrows) {
  const QuadraticBowl p(0.0, 0.0);
  EXPECT_THROW((void)solve_sqp(p, {1.0}), std::invalid_argument);
}

TEST(Sqp, StartOutsideBoxIsClamped) {
  const QuadraticBowl p(0.0, 0.0);
  const OptResult r = solve_sqp(p, {100.0, -100.0});
  EXPECT_NEAR(r.x[0], 0.0, 1e-3);
  EXPECT_NEAR(r.x[1], 0.0, 1e-3);
}

/// Property: SQP finds the bowl minimum from any corner of the box.
class SqpStartSweepTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SqpStartSweepTest, ConvergesFromAnyStart) {
  const auto [sx, sy] = GetParam();
  const QuadraticBowl p(-1.0, 2.0, 0.5);
  const OptResult r = solve_sqp(p, {sx, sy});
  EXPECT_NEAR(r.x[0], -1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 2.0, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, SqpStartSweepTest,
    ::testing::Values(std::make_pair(-5.0, -5.0), std::make_pair(5.0, -5.0),
                      std::make_pair(-5.0, 5.0), std::make_pair(5.0, 5.0),
                      std::make_pair(0.0, 0.0)));

}  // namespace
}  // namespace oftec::opt
