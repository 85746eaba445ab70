#include "comparators.h"

#include <gtest/gtest.h>

#include "analytic_problems.h"

namespace oftec::opt {
namespace {

using testing::ConstrainedQuadratic;
using testing::QuadraticBowl;
using testing::Rosenbrock;
using testing::WalledBowl;

TEST(TrustRegion, SolvesQuadraticBowl) {
  const QuadraticBowl p(-2.0, 3.0);
  const OptResult r = solve_trust_region(p, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], -2.0, 1e-2);
  EXPECT_NEAR(r.x[1], 3.0, 1e-2);
}

TEST(TrustRegion, RespectsBounds) {
  const QuadraticBowl p(7.0, 0.0);
  const OptResult r = solve_trust_region(p, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 5.0, 1e-2);
}

TEST(TrustRegion, SolvesConstrainedQuadraticViaPenalty) {
  const ConstrainedQuadratic p;
  const OptResult r = solve_trust_region(p, {1.5, 1.5});
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 0.05);
  EXPECT_NEAR(r.objective, 0.5, 0.05);
}

TEST(TrustRegion, HandlesRosenbrock) {
  const Rosenbrock p;
  TrustRegionOptions opts;
  opts.max_iterations = 400;
  const OptResult r = solve_trust_region(p, {-1.0, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 0.1);
  EXPECT_NEAR(r.x[1], 1.0, 0.2);
}

TEST(TrustRegion, InfStartReturnsImmediately) {
  const WalledBowl p(0.5);
  const OptResult r = solve_trust_region(p, {0.1, 0.5});
  EXPECT_FALSE(std::isfinite(r.objective));
}

TEST(TrustRegion, AvoidsInfRegion) {
  // Same caveat as the SQP walled test: the wall is invisible to the model,
  // so require substantial progress while staying finite.
  const WalledBowl p(0.5);
  const OptResult r = solve_trust_region(p, {1.5, 1.0});
  EXPECT_GE(r.x[0], 0.5 - 1e-9);
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_LT(r.x[1], 0.55);
  EXPECT_LT(r.objective, p.objective({1.5, 1.0}) * 0.35);
}

}  // namespace
}  // namespace oftec::opt
