#include "opt/sqp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/dense_matrix.h"
#include "opt/qp.h"
#include "util/log.h"
#include "util/obs.h"

namespace oftec::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Largest constraint value that still counts as feasible.
constexpr double kConstraintTolerance = 1e-6;
/// ℓ1 merit penalty: μ ≥ margin·max λ.
constexpr double kMeritPenaltyMargin = 10.0;
/// Trial steps per line search (α halves after each rejected one).
constexpr std::size_t kMaxLineSearchSteps = 12;

const obs::Counter g_obs_runs = obs::counter("opt.sqp.runs");
const obs::Counter g_obs_backtracks =
    obs::counter("opt.sqp.line_search_backtracks");
const obs::Histogram g_obs_iterations = obs::histogram(
    "opt.sqp.iterations", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});

/// ℓ1 merit: f + μ·Σ max(0, g_i). +inf propagates.
[[nodiscard]] double merit(double f, const la::Vector& g, double mu) {
  if (!std::isfinite(f)) return kInf;
  double penalty = 0.0;
  for (const double gi : g) {
    if (!std::isfinite(gi)) return kInf;
    penalty += std::max(0.0, gi);
  }
  return f + mu * penalty;
}

[[nodiscard]] double violation(const la::Vector& g) {
  double v = 0.0;
  for (const double gi : g) {
    if (!std::isfinite(gi)) return kInf;
    v = std::max(v, gi);
  }
  return v;
}

[[nodiscard]] bool all_finite(const la::Vector& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

OptResult solve_sqp(const Problem& problem, const la::Vector& x0,
                    const SqpOptions& options, const StopPredicate& stop) {
  OBS_SPAN("opt.sqp");
  g_obs_runs.add();
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.constraint_count();
  const Bounds& bounds = problem.bounds();
  if (x0.size() != n) {
    throw std::invalid_argument("solve_sqp: start dimension mismatch");
  }

  OptResult result;
  la::Vector x = clamp_to_bounds(x0, bounds);

  auto eval_f = [&](const la::Vector& p) {
    ++result.evaluations;
    return problem.objective(p);
  };
  auto eval_g = [&](const la::Vector& p) {
    ++result.evaluations;
    return problem.constraints(p);
  };
  auto eval_grad = [&](const la::Vector& p) {
    ++result.gradient_evaluations;
    Gradients grads = problem.gradients(p);
    if (grads.objective.size() != n || grads.constraints.size() != m) {
      throw std::logic_error("solve_sqp: gradient arity mismatch");
    }
    for (la::Vector& gc : grads.constraints) {
      if (gc.size() != n) {
        throw std::logic_error("solve_sqp: gradient arity mismatch");
      }
      for (double& entry : gc) {
        if (!std::isfinite(entry)) entry = 0.0;  // flat fallback
      }
    }
    return grads;
  };

  double f = eval_f(x);
  la::Vector g = eval_g(x);
  if (!std::isfinite(f)) {
    // Runaway start: nothing sensible to do from here.
    result.x = x;
    result.objective = f;
    result.status = SolveStatus::kRunaway;
    return result;
  }

  la::DenseMatrix hess = la::DenseMatrix::identity(n);
  // Scale the initial Hessian so unit steps are a fraction of the box.
  for (std::size_t i = 0; i < n; ++i) {
    const double width = bounds.upper[i] - bounds.lower[i];
    hess(i, i) = width > 0.0 ? 1.0 / (width * width) : 1.0;
  }

  double mu = 1.0;
  std::size_t consecutive_failures = 0;
  Gradients grads = eval_grad(x);  // at x: taken once per accepted point

  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;

    const la::Vector& grad_f = grads.objective;
    const std::vector<la::Vector>& grad_g = grads.constraints;
    if (!all_finite(grad_f)) break;  // no derivative here; accept x

    // QP rows: linearized constraints then box bounds.
    const std::size_t rows = m + 2 * n;
    la::DenseMatrix a(rows, n);
    la::Vector rhs(rows, 0.0);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t j = 0; j < n; ++j) a(c, j) = grad_g[c][j];
      rhs[c] = std::isfinite(g[c]) ? -g[c] : 0.0;
    }
    for (std::size_t j = 0; j < n; ++j) {
      a(m + j, j) = 1.0;                 // d_j ≤ ub_j − x_j
      rhs[m + j] = bounds.upper[j] - x[j];
      a(m + n + j, j) = -1.0;            // −d_j ≤ x_j − lb_j
      rhs[m + n + j] = x[j] - bounds.lower[j];
    }

    const QpResult qp = solve_qp(hess, grad_f, a, rhs);
    const la::Vector& d = qp.d;

    // Convergence: step small relative to the box.
    double step_rel = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double width = bounds.upper[j] - bounds.lower[j];
      step_rel = std::max(step_rel, std::abs(d[j]) / std::max(width, 1e-300));
    }
    if (step_rel < options.step_tolerance &&
        violation(g) <= kConstraintTolerance) {
      result.converged = true;
      break;
    }

    // Penalty update: μ must dominate the multipliers for the ℓ1 merit to be
    // exact.
    double max_lambda = 0.0;
    for (std::size_t c = 0; c < m; ++c) {
      max_lambda = std::max(max_lambda, qp.multipliers[c]);
    }
    mu = std::max(mu, kMeritPenaltyMargin * max_lambda + 1.0);

    // Backtracking line search on the ℓ1 merit.
    const double merit0 = merit(f, g, mu);
    // Directional derivative model: ∇fᵀd − μ·Σ max(0, g_i).
    double pred_decrease = la::dot(grad_f, d);
    for (std::size_t c = 0; c < m; ++c) {
      if (std::isfinite(g[c])) pred_decrease -= mu * std::max(0.0, g[c]);
    }
    // Require some predicted decrease; if the model predicts ascent the QP
    // step is unreliable — shrink aggressively.
    double alpha = 1.0;
    bool accepted = false;
    la::Vector x_new;
    double f_new = kInf;
    la::Vector g_new;
    for (std::size_t ls = 0; ls < kMaxLineSearchSteps; ++ls) {
      x_new = x;
      la::axpy(alpha, d, x_new);
      x_new = clamp_to_bounds(x_new, bounds);
      f_new = eval_f(x_new);
      if (std::isfinite(f_new)) {
        g_new = eval_g(x_new);
        const double merit_new = merit(f_new, g_new, mu);
        const double required =
            merit0 + 1e-4 * alpha * std::min(pred_decrease, 0.0);
        if (merit_new <= required) {
          accepted = true;
          break;
        }
      }
      alpha *= 0.5;
      g_obs_backtracks.add();
    }
    if (log::enabled(log::Level::kDebug)) {
      log::debug("sqp iter ", iter, ": f=", f, " viol=", violation(g),
                 " |d|=", la::norm2(d), " alpha=", alpha,
                 " accepted=", accepted, " x0=", x[0],
                 n > 1 ? " x1=" : "", n > 1 ? std::to_string(x[1]) : "");
    }
    if (!accepted) {
      // No merit progress along d. Inflate the model curvature (shorter QP
      // steps next round, trust-region style) and retry before giving up —
      // near-active constraints often reject the first full QP step.
      ++consecutive_failures;
      if (consecutive_failures >= 3) {
        result.converged = true;
        break;
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) hess(i, j) *= 4.0;
      }
      continue;
    }
    consecutive_failures = 0;

    // Damped BFGS update from the objective-gradient difference. y uses ∇f
    // only, so constraint curvature never enters the model Hessian; the
    // linearized constraints and the ℓ1 merit carry the constraints alone.
    Gradients grads_new = eval_grad(x_new);
    if (all_finite(grads_new.objective)) {
      la::Vector s = x_new;
      la::axpy(-1.0, x, s);
      la::Vector y = grads_new.objective;
      la::axpy(-1.0, grad_f, y);
      const double sy = la::dot(s, y);
      const la::Vector hs = hess.multiply(s);
      const double shs = la::dot(s, hs);
      if (shs > 0.0 && la::norm2(s) > 0.0) {
        // Powell damping keeps the update positive definite.
        double theta = 1.0;
        if (sy < 0.2 * shs) {
          theta = 0.8 * shs / (shs - sy);
        }
        la::Vector y_bar = y;
        la::scale(theta, y_bar);
        la::Vector hs_scaled = hs;
        la::scale(1.0 - theta, hs_scaled);
        la::axpy(1.0, hs_scaled, y_bar);
        const double s_ybar = la::dot(s, y_bar);
        if (s_ybar > 1e-14) {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              hess(i, j) += y_bar[i] * y_bar[j] / s_ybar -
                            hs[i] * hs[j] / shs;
            }
          }
        }
      }
    }

    x = std::move(x_new);
    f = f_new;
    g = std::move(g_new);
    grads = std::move(grads_new);

    if (stop && stop(x, f)) {
      result.converged = true;
      break;
    }
  }

  result.x = x;
  result.objective = f;
  result.feasible = violation(g) <= kConstraintTolerance;
  result.status =
      result.converged ? SolveStatus::kOk : SolveStatus::kNotConverged;
  if (obs::enabled()) {
    g_obs_iterations.observe(static_cast<double>(result.iterations));
  }
  return result;
}

}  // namespace oftec::opt
