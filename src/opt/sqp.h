// Active-set sequential quadratic programming (paper Sec. 5.2).
//
// Solves min f(x) s.t. g(x) ≤ 0, lb ≤ x ≤ ub where f and g come from the
// thermal simulator (possibly +inf in the runaway region). Each iteration:
//   1. gradients of f and g from Problem::gradients — exact
//      implicit-function-theorem sensitivities for the thermal problems —
//      taken once per accepted point,
//   2. convex QP subproblem (damped-BFGS Hessian, linearized constraints,
//      box handled as linear rows) solved exactly by active-set enumeration,
//   3. ℓ1-merit backtracking line search (rejects +inf samples),
//   4. damped (Powell) BFGS update from the objective-gradient difference.
// An optional early-stop predicate implements Algorithm 1 line 3: "stop the
// optimization whenever 𝒯(ω, I) < T_max".
#pragma once

#include <functional>

#include "opt/problem.h"

namespace oftec::opt {

struct SqpOptions {
  std::size_t max_iterations = 60;
  double step_tolerance = 1e-5;     ///< ‖d‖∞ relative to box width
};

/// Early-stop predicate: return true to accept the current iterate and stop.
using StopPredicate =
    std::function<bool(const la::Vector& x, double objective)>;

/// Run active-set SQP from `x0` (clamped into bounds). The start does not
/// need to satisfy the nonlinear constraints — the ℓ1 merit drives toward
/// feasibility — but it must have a finite objective.
[[nodiscard]] OptResult solve_sqp(const Problem& problem, const la::Vector& x0,
                                  const SqpOptions& options = {},
                                  const StopPredicate& stop = nullptr);

}  // namespace oftec::opt
