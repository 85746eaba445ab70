// Exhaustive grid-search oracle.
//
// Derivative-free, so immune to the line-search/QP failure modes of the
// gradient-based solvers. It is (a) the ground truth that the active-set
// SQP lands near the global optimum despite the "minor non-convexities" of
// Fig. 6(a,b) (bench_ablation_optimizers, Oftec.GridSearchEngineAgreesWithSqp)
// and (b) the DTM loop's tier-3 fallback controller (core/dtm_loop.cpp).
#pragma once

#include <cstddef>

#include "opt/problem.h"

namespace oftec::opt {

/// Evaluate the problem on a regular grid of `points_per_dimension` points
/// per box dimension and return the best feasible point (objective +inf /
/// infeasible cells skipped). Constraints are evaluated only for cells that
/// improve the running best; cells are visited in odometer order (first
/// dimension fastest) and the first of equal objectives wins.
[[nodiscard]] OptResult solve_grid_search(const Problem& problem,
                                          std::size_t points_per_dimension = 41);

}  // namespace oftec::opt
