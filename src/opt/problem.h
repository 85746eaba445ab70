// Constrained nonlinear program interface.
//
// OFTEC's two formulations (Optimizations 1 and 2) are CNLPs over
// x = (ω, I_TEC) whose objective and constraints are evaluated numerically
// by the thermal simulator — they can return +infinity inside the thermal
// runaway region, and every solver in this module must treat +inf as
// "reject and back off", exactly as the paper's Fig. 6(a,b) surfaces demand.
// Gradients come from the problem itself (Problem::gradients): the thermal
// problems differentiate their converged state exactly.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "la/vector_ops.h"
#include "util/status.h"

namespace oftec::opt {

/// Box bounds for the decision vector.
struct Bounds {
  la::Vector lower;
  la::Vector upper;
};

/// First derivatives at one point.
struct Gradients {
  la::Vector objective;                 ///< ∇f
  std::vector<la::Vector> constraints;  ///< ∇g_c, one per constraint
};

/// Minimize objective(x) subject to constraints(x) <= 0 (component-wise) and
/// bounds. Implementations must be deterministic for a given x.
class Problem {
 public:
  virtual ~Problem() = default;

  [[nodiscard]] virtual std::size_t dimension() const = 0;
  [[nodiscard]] virtual std::size_t constraint_count() const = 0;
  [[nodiscard]] virtual const Bounds& bounds() const = 0;

  /// Objective value; may be +inf (e.g. thermal runaway).
  [[nodiscard]] virtual double objective(const la::Vector& x) const = 0;

  /// Constraint values g(x); feasible iff every entry <= 0. Entries may be
  /// +inf in the runaway region.
  [[nodiscard]] virtual la::Vector constraints(const la::Vector& x) const = 0;

  /// Gradients at an x whose objective is finite; the gradient-based
  /// solvers (SQP) take every derivative from here. On a bound the entry is
  /// the one-sided derivative into the box. Non-finite entries mean "not
  /// available here": SQP then stops at x (objective) or treats that
  /// constraint row as flat.
  [[nodiscard]] virtual Gradients gradients(const la::Vector& x) const = 0;
};

/// Solution report shared by all solvers.
struct OptResult {
  la::Vector x;
  double objective = std::numeric_limits<double>::infinity();
  bool feasible = false;     ///< constraints satisfied within tolerance
  bool converged = false;    ///< solver's own stopping test fired
  /// Structured outcome: kOk when converged, kNotConverged on an exhausted
  /// budget, kRunaway when the search never escaped the +inf region. Layered
  /// fallback (core::run_oftec, core::dtm_loop) branches on this.
  SolveStatus status = SolveStatus::kNotConverged;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;  ///< objective+constraint evaluations
  std::size_t gradient_evaluations = 0;  ///< Problem::gradients calls
};

/// Clamp a point into the problem's box.
[[nodiscard]] inline la::Vector clamp_to_bounds(const la::Vector& x,
                                                const Bounds& b) {
  la::Vector out = x;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::min(std::max(out[i], b.lower[i]), b.upper[i]);
  }
  return out;
}

}  // namespace oftec::opt
