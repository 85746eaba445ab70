#include "comparators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace oftec::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Bounds box(double lo, double hi, std::size_t n) {
  Bounds b;
  b.lower.assign(n, lo);
  b.upper.assign(n, hi);
  return b;
}

TEST(FiniteDiff, QuadraticGradientIsAccurate) {
  const ScalarFn f = [](const la::Vector& x) {
    return x[0] * x[0] + 3.0 * x[1] * x[1] + x[0] * x[1];
  };
  const la::Vector x = {1.0, -2.0};
  FiniteDiffOptions opts;
  opts.step_rel = 1e-5;
  const la::Vector g = gradient(f, x, box(-10.0, 10.0, 2), opts);
  EXPECT_NEAR(g[0], 2.0 * 1.0 + (-2.0), 1e-5);
  EXPECT_NEAR(g[1], 6.0 * (-2.0) + 1.0, 1e-5);
}

TEST(FiniteDiff, CountsEvaluations) {
  std::size_t count = 0;
  const ScalarFn f = [](const la::Vector& x) { return x[0]; };
  FiniteDiffOptions opts;
  (void)gradient(f, {0.5}, box(0.0, 1.0, 1), opts, &count);
  EXPECT_GE(count, 2u);
}

TEST(FiniteDiff, FallsBackToOneSidedAtInfSamples) {
  // f is +inf for x < 0.5 — the gradient at 0.5 must still be computed from
  // the finite side.
  const ScalarFn f = [](const la::Vector& x) {
    return x[0] < 0.5 ? kInf : 2.0 * x[0];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-4;
  const la::Vector g = gradient(f, {0.5}, box(0.0, 1.0, 1), opts);
  EXPECT_NEAR(g[0], 2.0, 1e-4);
}

TEST(FiniteDiff, ClampsStepsAtBounds) {
  // At the upper bound only the backward sample is available.
  const ScalarFn f = [](const la::Vector& x) { return -3.0 * x[0]; };
  FiniteDiffOptions opts;
  const la::Vector g = gradient(f, {1.0}, box(0.0, 1.0, 1), opts);
  EXPECT_NEAR(g[0], -3.0, 1e-6);
}

TEST(FiniteDiff, AllInfGivesInfGradient) {
  const ScalarFn f = [](const la::Vector&) { return kInf; };
  const la::Vector g = gradient(f, {0.5}, box(0.0, 1.0, 1), {});
  EXPECT_TRUE(std::isinf(g[0]));
}

TEST(FiniteDiff, HessianOfQuadraticIsExact) {
  const ScalarFn f = [](const la::Vector& x) {
    return 2.0 * x[0] * x[0] + 0.5 * x[1] * x[1] - x[0] * x[1];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-4;
  const la::DenseMatrix h = hessian(f, {0.3, 0.7}, box(-5.0, 5.0, 2), opts);
  EXPECT_NEAR(h(0, 0), 4.0, 1e-3);
  EXPECT_NEAR(h(1, 1), 1.0, 1e-3);
  EXPECT_NEAR(h(0, 1), -1.0, 1e-3);
  EXPECT_NEAR(h(0, 1), h(1, 0), 1e-12);  // symmetrized
}

TEST(FiniteDiff, ScaleFloorOverridesBoxWidth) {
  std::size_t count = 0;
  double seen_step = 0.0;
  const ScalarFn f = [&](const la::Vector& x) {
    seen_step = std::max(seen_step, std::abs(x[0] - 0.5));
    return x[0];
  };
  FiniteDiffOptions opts;
  opts.step_rel = 1e-2;
  opts.scale_floor = {10.0};
  (void)gradient(f, {0.5}, box(0.0, 1.0, 1), opts, &count);
  // Step = 1e-2 · 10 = 0.1, clamped to the bound distance 0.5.
  EXPECT_NEAR(seen_step, 0.1, 1e-12);
}

}  // namespace
}  // namespace oftec::opt
