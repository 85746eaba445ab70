#include "opt/grid_search.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/obs.h"

namespace oftec::opt {

namespace {

const obs::Counter g_obs_runs = obs::counter("opt.grid.runs");
const obs::Counter g_obs_points = obs::counter("opt.grid.points");

}  // namespace

OptResult solve_grid_search(const Problem& problem,
                            std::size_t points_per_dimension) {
  if (points_per_dimension < 2) {
    throw std::invalid_argument("solve_grid_search: need >= 2 points");
  }
  OBS_SPAN("opt.grid_search");
  g_obs_runs.add();
  OptResult result;
  result.objective = std::numeric_limits<double>::infinity();

  const Bounds& bounds = problem.bounds();
  const std::size_t n = bounds.lower.size();
  std::vector<std::size_t> idx(n, 0);
  la::Vector x(n);
  while (true) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(idx[i]) /
                       static_cast<double>(points_per_dimension - 1);
      x[i] = bounds.lower[i] + t * (bounds.upper[i] - bounds.lower[i]);
    }
    ++result.iterations;
    const double f = problem.objective(x);
    ++result.evaluations;
    if (std::isfinite(f) && f < result.objective) {
      const la::Vector g = problem.constraints(x);
      ++result.evaluations;
      bool feasible = true;
      for (const double gi : g) {
        if (!(gi <= 0.0)) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        result.objective = f;
        result.x = x;
        result.feasible = true;
      }
    }
    // Odometer increment.
    std::size_t dim = 0;
    while (dim < n && ++idx[dim] == points_per_dimension) {
      idx[dim] = 0;
      ++dim;
    }
    if (dim == n) break;
  }
  g_obs_points.add(result.iterations);
  result.converged = result.feasible;
  // An exhaustive grid with no feasible point is a definitive "no feasible
  // operating point at this resolution" finding, not a numerical failure.
  result.status = result.feasible ? SolveStatus::kOk : SolveStatus::kRunaway;
  return result;
}

}  // namespace oftec::opt
