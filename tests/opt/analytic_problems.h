// Analytic test problems shared by the optimizer test suites.
#pragma once

#include <cmath>
#include <limits>

#include "comparators.h"
#include "opt/problem.h"

namespace oftec::opt::testing {

/// The gradient hook for problems without analytic derivatives: central
/// differences (comparators.h) of the objective and of each constraint
/// at the default step.
inline Gradients finite_difference_gradients(const Problem& p,
                                             const la::Vector& x) {
  const FiniteDiffOptions fd;
  Gradients g;
  g.objective = gradient([&p](const la::Vector& q) { return p.objective(q); },
                         x, p.bounds(), fd);
  for (std::size_t c = 0; c < p.constraint_count(); ++c) {
    g.constraints.push_back(gradient(
        [&p, c](const la::Vector& q) { return p.constraints(q)[c]; }, x,
        p.bounds(), fd));
  }
  return g;
}

/// f = (x0−a)² + c·(x1−b)², unconstrained inside a box.
class QuadraticBowl final : public Problem {
 public:
  QuadraticBowl(double a, double b, double c = 1.0) : a_(a), b_(b), c_(c) {
    bounds_.lower = {-5.0, -5.0};
    bounds_.upper = {5.0, 5.0};
  }
  std::size_t dimension() const override { return 2; }
  std::size_t constraint_count() const override { return 0; }
  const Bounds& bounds() const override { return bounds_; }
  double objective(const la::Vector& x) const override {
    return (x[0] - a_) * (x[0] - a_) + c_ * (x[1] - b_) * (x[1] - b_);
  }
  la::Vector constraints(const la::Vector&) const override { return {}; }
  Gradients gradients(const la::Vector& x) const override {
    return finite_difference_gradients(*this, x);
  }

 private:
  double a_, b_, c_;
  Bounds bounds_;
};

/// min x0² + x1²  s.t.  x0 + x1 ≥ 1  →  x* = (0.5, 0.5), f* = 0.5.
class ConstrainedQuadratic final : public Problem {
 public:
  ConstrainedQuadratic() {
    bounds_.lower = {0.0, 0.0};
    bounds_.upper = {2.0, 2.0};
  }
  std::size_t dimension() const override { return 2; }
  std::size_t constraint_count() const override { return 1; }
  const Bounds& bounds() const override { return bounds_; }
  double objective(const la::Vector& x) const override {
    return x[0] * x[0] + x[1] * x[1];
  }
  la::Vector constraints(const la::Vector& x) const override {
    return {1.0 - x[0] - x[1]};
  }
  Gradients gradients(const la::Vector& x) const override {
    return finite_difference_gradients(*this, x);
  }

 private:
  Bounds bounds_;
};

/// Quadratic bowl with a +inf "runaway" region below x0 < wall; the true
/// minimum (0, 0) is inside the wall, so the solver must settle at the
/// boundary x0 ≈ wall.
class WalledBowl final : public Problem {
 public:
  explicit WalledBowl(double wall) : wall_(wall) {
    bounds_.lower = {0.0, 0.0};
    bounds_.upper = {2.0, 2.0};
  }
  std::size_t dimension() const override { return 2; }
  std::size_t constraint_count() const override { return 0; }
  const Bounds& bounds() const override { return bounds_; }
  double objective(const la::Vector& x) const override {
    if (x[0] < wall_) return std::numeric_limits<double>::infinity();
    return x[0] * x[0] + x[1] * x[1];
  }
  la::Vector constraints(const la::Vector&) const override { return {}; }
  Gradients gradients(const la::Vector& x) const override {
    return finite_difference_gradients(*this, x);
  }

 private:
  double wall_;
  Bounds bounds_;
};

/// Bounded Rosenbrock (banana valley), minimum at (1, 1).
class Rosenbrock final : public Problem {
 public:
  Rosenbrock() {
    bounds_.lower = {-2.0, -2.0};
    bounds_.upper = {2.0, 2.0};
  }
  std::size_t dimension() const override { return 2; }
  std::size_t constraint_count() const override { return 0; }
  const Bounds& bounds() const override { return bounds_; }
  double objective(const la::Vector& x) const override {
    const double t1 = 1.0 - x[0];
    const double t2 = x[1] - x[0] * x[0];
    return t1 * t1 + 100.0 * t2 * t2;
  }
  la::Vector constraints(const la::Vector&) const override { return {}; }
  Gradients gradients(const la::Vector& x) const override {
    return finite_difference_gradients(*this, x);
  }

 private:
  Bounds bounds_;
};

/// Mildly multimodal 1-D-in-2-D function for grid-search tests:
/// f = sin(3x0) + 0.1·x0² + x1², global minimum near x0 ≈ −0.524 (for the
/// box [−2, 2]).
class Multimodal final : public Problem {
 public:
  Multimodal() {
    bounds_.lower = {-2.0, -1.0};
    bounds_.upper = {2.0, 1.0};
  }
  std::size_t dimension() const override { return 2; }
  std::size_t constraint_count() const override { return 0; }
  const Bounds& bounds() const override { return bounds_; }
  double objective(const la::Vector& x) const override {
    return std::sin(3.0 * x[0]) + 0.1 * x[0] * x[0] + x[1] * x[1];
  }
  la::Vector constraints(const la::Vector&) const override { return {}; }
  Gradients gradients(const la::Vector& x) const override {
    return finite_difference_gradients(*this, x);
  }

 private:
  Bounds bounds_;
};

}  // namespace oftec::opt::testing
