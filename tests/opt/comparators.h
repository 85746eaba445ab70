// The Sec. 5.2 comparators: a log-barrier interior-point method and an ℓ1
// trust-region method, with the finite-difference derivatives they run on.
//
// The paper "experimented with three state-of-the-art nonlinear
// optimization techniques ... interior-point, trust-region, and active-set
// SQP" and chose SQP, which is what core::run_oftec runs. These two are
// kept here, header-only, as the other two rows of that comparison:
// bench_ablation_optimizers passes them to run_oftec as its
// OftecOptions::solver, and the optimizer suites check them on the
// analytic problems. Their obs counters (opt.ipm.*) register only in the
// binaries that include this header.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "la/dense_lu.h"
#include "la/dense_matrix.h"
#include "la/vector_ops.h"
#include "opt/problem.h"
#include "util/obs.h"

namespace oftec::opt {

namespace detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline const obs::Counter ipm_runs = obs::counter("opt.ipm.runs");
inline const obs::Counter ipm_infeasible_starts =
    obs::counter("opt.ipm.infeasible_starts");
inline const obs::Histogram ipm_iterations = obs::histogram(
    "opt.ipm.iterations", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});

}  // namespace detail

// ---------------------------------------------------------------------------
// Finite-difference derivatives robust to +inf function values and bounds.
//
// The OFTEC objective is only available through the thermal simulator
// (paper Sec. 5.2: "the objective function 𝒫 can only be determined
// numerically"). SQP takes its gradients from Problem::gradients, which the
// thermal problems compute exactly; these differences serve the
// interior-point and trust-region comparators, and test problems that have
// no analytic gradient. Steps are scaled per coordinate, kept inside the
// box, and fall back to one-sided differences when the opposite sample
// lands in the runaway region.
// ---------------------------------------------------------------------------

using ScalarFn = std::function<double(const la::Vector&)>;

struct FiniteDiffOptions {
  /// Relative step: h_i = step_rel · max(|x_i|, scale_floor_i).
  double step_rel = 1e-4;
  /// Per-coordinate floor for the step scale; defaults to the box width.
  la::Vector scale_floor;
};

namespace detail {

[[nodiscard]] inline double step_for(const la::Vector& x,
                                     const Bounds& bounds,
                                     const FiniteDiffOptions& options,
                                     std::size_t i) {
  double floor_i = bounds.upper[i] - bounds.lower[i];
  if (!options.scale_floor.empty()) floor_i = options.scale_floor[i];
  return options.step_rel * std::max(std::abs(x[i]), floor_i);
}

}  // namespace detail

/// Central-difference gradient with one-sided fallback near bounds or +inf
/// samples. Returns +inf entries when no finite difference is computable.
[[nodiscard]] inline la::Vector gradient(
    const ScalarFn& f, const la::Vector& x, const Bounds& bounds,
    const FiniteDiffOptions& options, std::size_t* eval_count = nullptr) {
  const std::size_t n = x.size();
  la::Vector grad(n, 0.0);
  // f(x) is computed on demand, for the one-sided falls.
  const double f0_lazy = detail::kInf;
  double f0 = f0_lazy;
  bool have_f0 = false;
  auto eval = [&](const la::Vector& p) {
    if (eval_count != nullptr) ++(*eval_count);
    return f(p);
  };
  auto get_f0 = [&]() {
    if (!have_f0) {
      f0 = eval(x);
      have_f0 = true;
    }
    return f0;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const double h = detail::step_for(x, bounds, options, i);
    if (h <= 0.0) {
      throw std::invalid_argument("gradient: degenerate step");
    }

    la::Vector xp = x;
    la::Vector xm = x;
    xp[i] = std::min(x[i] + h, bounds.upper[i]);
    xm[i] = std::max(x[i] - h, bounds.lower[i]);
    const double hp = xp[i] - x[i];
    const double hm = x[i] - xm[i];

    double fp = hp > 0.0 ? eval(xp) : detail::kInf;
    double fm = hm > 0.0 ? eval(xm) : detail::kInf;

    if (std::isfinite(fp) && std::isfinite(fm)) {
      grad[i] = (fp - fm) / (hp + hm);
    } else if (std::isfinite(fp)) {
      grad[i] = (fp - get_f0()) / hp;  // one-sided forward
    } else if (std::isfinite(fm)) {
      grad[i] = (get_f0() - fm) / hm;  // one-sided backward
    } else {
      grad[i] = detail::kInf;  // surrounded by runaway — caller must handle
    }
    if (!std::isfinite(get_f0())) grad[i] = detail::kInf;
  }
  return grad;
}

/// Dense finite-difference Hessian via gradient differencing (forward).
/// Symmetrized. Used by the interior-point and trust-region comparators.
[[nodiscard]] inline la::DenseMatrix hessian(
    const ScalarFn& f, const la::Vector& x, const Bounds& bounds,
    const FiniteDiffOptions& options, std::size_t* eval_count = nullptr) {
  const std::size_t n = x.size();
  la::DenseMatrix h_matrix(n, n);
  const la::Vector g0 = gradient(f, x, bounds, options, eval_count);

  for (std::size_t j = 0; j < n; ++j) {
    const double h = detail::step_for(x, bounds, options, j);
    la::Vector xj = x;
    // Step toward the interior so the perturbed gradient stays in-box.
    const bool forward = x[j] + h <= bounds.upper[j];
    xj[j] = forward ? x[j] + h : std::max(x[j] - h, bounds.lower[j]);
    const double hj = xj[j] - x[j];
    if (hj == 0.0) continue;
    const la::Vector gj = gradient(f, xj, bounds, options, eval_count);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (gj[i] - g0[i]) / hj;
      h_matrix(i, j) = std::isfinite(d) ? d : 0.0;
    }
  }
  // Symmetrize.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (h_matrix(i, j) + h_matrix(j, i));
      h_matrix(i, j) = avg;
      h_matrix(j, i) = avg;
    }
  }
  return h_matrix;
}

// ---------------------------------------------------------------------------
// Log-barrier interior-point method (comparator, paper Sec. 5.2).
//
// The paper reports experimenting with interior-point, trust-region, and
// active-set SQP, picking SQP for quality × speed. This module provides the
// interior-point comparator: minimize
//   f(x) − μ·[ Σ log(−g_i(x)) + Σ log(x−lb) + Σ log(ub−x) ]
// by damped Newton (finite-difference Hessian) with a decreasing barrier
// parameter. Requires a strictly feasible start.
// ---------------------------------------------------------------------------

struct InteriorPointOptions {
  double mu_initial = 1.0;
  double mu_factor = 0.2;        ///< μ ← factor·μ per outer iteration
  double mu_min = 1e-6;
  std::size_t max_outer = 12;
  std::size_t max_inner = 25;    ///< Newton steps per barrier value
  double gradient_tolerance = 1e-5;
  double finite_diff_step = 1e-4;
};

/// Minimize from a strictly feasible x0 (clamped slightly inside the box).
/// If x0 violates a nonlinear constraint, returns infeasible immediately —
/// pair with Optimization 2 to find a strictly feasible start, exactly as
/// OFTEC does for SQP.
[[nodiscard]] inline OptResult solve_interior_point(
    const Problem& problem, const la::Vector& x0,
    const InteriorPointOptions& options = {}) {
  OBS_SPAN("opt.interior_point");
  detail::ipm_runs.add();
  const std::size_t n = problem.dimension();
  const Bounds& bounds = problem.bounds();

  OptResult result;

  // Clamp strictly inside the box.
  la::Vector x = x0;
  for (std::size_t i = 0; i < n; ++i) {
    const double width = bounds.upper[i] - bounds.lower[i];
    const double margin = 1e-6 * width;
    x[i] = std::min(std::max(x[i], bounds.lower[i] + margin),
                    bounds.upper[i] - margin);
  }

  auto barrier = [&](const la::Vector& p, double mu) -> double {
    // Box membership first: problems may refuse to evaluate outside it.
    double box_terms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = p[i] - bounds.lower[i];
      const double hi = bounds.upper[i] - p[i];
      if (!(lo > 0.0) || !(hi > 0.0)) return detail::kInf;
      box_terms -= mu * (std::log(lo) + std::log(hi));
    }
    ++result.evaluations;
    const double f = problem.objective(p);
    if (!std::isfinite(f)) return detail::kInf;
    ++result.evaluations;
    const la::Vector g = problem.constraints(p);
    double total = f + box_terms;
    for (const double gi : g) {
      if (!(gi < 0.0)) return detail::kInf;  // infeasible or on the boundary
      total -= mu * std::log(-gi);
    }
    return total;
  };

  // Verify strict feasibility of the start.
  {
    const la::Vector g0 = problem.constraints(x);
    ++result.evaluations;
    for (const double gi : g0) {
      if (!(gi < 0.0)) {
        detail::ipm_infeasible_starts.add();
        result.x = x;
        result.objective = problem.objective(x);
        ++result.evaluations;
        return result;  // infeasible start — caller must bootstrap
      }
    }
  }

  FiniteDiffOptions fd;
  fd.step_rel = options.finite_diff_step;

  double mu = options.mu_initial;
  for (std::size_t outer = 0; outer < options.max_outer && mu >= options.mu_min;
       ++outer) {
    auto phi = [&](const la::Vector& p) { return barrier(p, mu); };

    for (std::size_t inner = 0; inner < options.max_inner; ++inner) {
      ++result.iterations;
      const la::Vector grad = gradient(phi, x, bounds, fd);
      bool ok = true;
      for (const double v : grad) ok = ok && std::isfinite(v);
      if (!ok) break;
      if (la::norm_inf(grad) < options.gradient_tolerance / mu) break;

      la::DenseMatrix hess = hessian(phi, x, bounds, fd);
      // Newton direction with Levenberg fallback when the Hessian is not PD.
      la::Vector d;
      double damping = 0.0;
      for (int attempt = 0; attempt < 6; ++attempt) {
        la::DenseMatrix h_mod = hess;
        for (std::size_t i = 0; i < n; ++i) h_mod(i, i) += damping;
        try {
          d = la::solve_dense(h_mod, grad);
          // Descent check.
          if (la::dot(d, grad) > 0.0) break;
        } catch (const std::runtime_error&) {
        }
        damping = damping == 0.0 ? 1e-6 : damping * 100.0;
        d.clear();
      }
      if (d.empty()) {
        d = grad;  // steepest descent fallback
      }

      // Backtracking line search on the barrier (handles +inf naturally).
      const double phi0 = phi(x);
      double alpha = 1.0;
      bool moved = false;
      for (int ls = 0; ls < 30; ++ls) {
        la::Vector x_new = x;
        la::axpy(-alpha, d, x_new);
        const double phi_new = phi(x_new);
        if (std::isfinite(phi_new) && phi_new < phi0) {
          x = std::move(x_new);
          moved = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!moved) break;
    }
    mu *= options.mu_factor;
  }

  result.x = x;
  result.objective = problem.objective(x);
  ++result.evaluations;
  const la::Vector g = problem.constraints(x);
  ++result.evaluations;
  result.feasible = true;
  for (const double gi : g) result.feasible = result.feasible && gi <= 1e-6;
  result.converged = true;
  result.status =
      result.feasible ? SolveStatus::kOk : SolveStatus::kNotConverged;
  if (obs::enabled()) {
    detail::ipm_iterations.observe(static_cast<double>(result.iterations));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Trust-region method on the ℓ1 exact-penalty function (comparator).
//
// Third of the paper's Sec. 5.2 trio. Minimizes
//   P(x) = f(x) + ρ·Σ max(0, g_i(x))
// with a quadratic model from finite differences inside an adaptive
// trust radius, steps projected into the box. ρ is raised until the ℓ1
// penalty is exact (feasible minimizers coincide).
// ---------------------------------------------------------------------------

struct TrustRegionOptions {
  double initial_radius_fraction = 0.1;  ///< of the box diagonal
  double min_radius_fraction = 1e-6;
  std::size_t max_iterations = 120;
  double penalty = 50.0;        ///< ρ
  double penalty_growth = 4.0;  ///< applied when iterates stall infeasible
  double eta_accept = 0.05;     ///< ratio threshold to accept a step
  double finite_diff_step = 1e-4;
};

[[nodiscard]] inline OptResult solve_trust_region(
    const Problem& problem, const la::Vector& x0,
    const TrustRegionOptions& options = {}) {
  const std::size_t n = problem.dimension();
  const Bounds& bounds = problem.bounds();

  OptResult result;
  la::Vector x = clamp_to_bounds(x0, bounds);
  double rho = options.penalty;

  auto penalized = [&](const la::Vector& p) -> double {
    ++result.evaluations;
    const double f = problem.objective(p);
    if (!std::isfinite(f)) return detail::kInf;
    ++result.evaluations;
    const la::Vector g = problem.constraints(p);
    double total = f;
    for (const double gi : g) {
      if (!std::isfinite(gi)) return detail::kInf;
      total += rho * std::max(0.0, gi);
    }
    return total;
  };

  double box_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = bounds.upper[i] - bounds.lower[i];
    box_diag += w * w;
  }
  box_diag = std::sqrt(box_diag);
  double radius = options.initial_radius_fraction * box_diag;
  const double min_radius = options.min_radius_fraction * box_diag;

  FiniteDiffOptions fd;
  fd.step_rel = options.finite_diff_step;

  double p_current = penalized(x);
  if (!std::isfinite(p_current)) {
    result.x = x;
    result.objective = problem.objective(x);
    result.status = SolveStatus::kRunaway;
    return result;
  }

  std::size_t stall_count = 0;
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    if (radius < min_radius) {
      result.converged = true;
      break;
    }

    const la::Vector grad = gradient(penalized, x, bounds, fd);
    bool grad_ok = true;
    for (const double v : grad) grad_ok = grad_ok && std::isfinite(v);
    if (!grad_ok) break;

    la::DenseMatrix hess = hessian(penalized, x, bounds, fd);

    // Solve the model min gᵀd + ½dᵀHd, ‖d‖ ≤ radius (Levenberg iteration).
    la::Vector d;
    double damping = 0.0;
    for (int attempt = 0; attempt < 20; ++attempt) {
      la::DenseMatrix h_mod = hess;
      for (std::size_t i = 0; i < n; ++i) h_mod(i, i) += damping;
      bool solved = true;
      try {
        d = la::solve_dense(h_mod, grad);
      } catch (const std::runtime_error&) {
        solved = false;
      }
      if (solved) {
        la::scale(-1.0, d);
        if (la::norm2(d) <= radius && la::dot(d, grad) < 0.0) break;
      }
      damping = damping == 0.0 ? la::norm_inf(grad) / radius + 1e-8
                               : damping * 2.0;
      d.clear();
    }
    if (d.empty() || la::dot(d, grad) >= 0.0) {
      // Cauchy fallback: steepest descent clipped to the radius.
      d = grad;
      la::scale(-radius / std::max(la::norm2(grad), 1e-300), d);
    }
    if (la::norm2(d) > radius) {
      la::scale(radius / la::norm2(d), d);
    }

    la::Vector x_trial = x;
    la::axpy(1.0, d, x_trial);
    x_trial = clamp_to_bounds(x_trial, bounds);

    const double p_trial = penalized(x_trial);
    const la::Vector hd = hess.multiply(d);
    const double model_decrease = -(la::dot(grad, d) + 0.5 * la::dot(d, hd));
    const double actual_decrease =
        std::isfinite(p_trial) ? p_current - p_trial : -detail::kInf;

    const double ratio = model_decrease > 0.0
                             ? actual_decrease / model_decrease
                             : (actual_decrease > 0.0 ? 1.0 : -1.0);

    if (ratio >= options.eta_accept && actual_decrease > 0.0) {
      x = std::move(x_trial);
      p_current = p_trial;
      if (ratio > 0.75) radius = std::min(2.0 * radius, box_diag);
      stall_count = 0;
    } else {
      radius *= 0.5;
      ++stall_count;
    }

    // If stuck and infeasible, make the penalty harder.
    if (stall_count >= 8) {
      ++result.evaluations;
      const la::Vector g = problem.constraints(x);
      double viol = 0.0;
      for (const double gi : g) viol = std::max(viol, gi);
      if (viol > 1e-6) {
        rho *= options.penalty_growth;
        p_current = penalized(x);
      }
      stall_count = 0;
    }
  }

  result.x = x;
  ++result.evaluations;
  result.objective = problem.objective(x);
  ++result.evaluations;
  const la::Vector g = problem.constraints(x);
  result.feasible = true;
  for (const double gi : g) result.feasible = result.feasible && gi <= 1e-6;
  result.status =
      result.converged ? SolveStatus::kOk : SolveStatus::kNotConverged;
  return result;
}

}  // namespace oftec::opt
