// Optimization 1 and 2 as opt::Problem instances.
//
// Decision vector: x = (ω, I₁ … I_Z), one current per TEC zone of the
// system: x = (ω) for fan-only packages, x = (ω, I_TEC) for the paper's
// single series current. Two objective choices cover both of the paper's
// formulations:
//   Optimization 1: minimize 𝒫, subject to 𝒯 ≤ T_max   (kCoolingPower + constraint)
//   Optimization 2: minimize 𝒯, box constraints only    (kMaxTemperature)
#pragma once

#include "core/cooling_system.h"
#include "opt/problem.h"

namespace oftec::core {

class CoolingProblem final : public opt::Problem {
 public:
  enum class Objective { kCoolingPower, kMaxTemperature };

  /// `temperature_constraint` adds g(x) = 𝒯(x) − (T_max − strictness) ≤ 0.
  /// The paper's constraint (15) is the strict inequality T_i < T_max;
  /// `strictness` (in kelvin) keeps boundary-converged solutions strictly
  /// inside it. `t_max_override` (> 0, in kelvin) replaces the system's
  /// built-in threshold — evaluations are T_max-independent, so one memoized
  /// system can serve problems at many thresholds (the Pareto sweep).
  CoolingProblem(const CoolingSystem& system, Objective objective,
                 bool temperature_constraint, double strictness = 0.01,
                 double t_max_override = 0.0);

  [[nodiscard]] std::size_t dimension() const override;
  [[nodiscard]] std::size_t constraint_count() const override;
  [[nodiscard]] const opt::Bounds& bounds() const override;
  [[nodiscard]] double objective(const la::Vector& x) const override;
  [[nodiscard]] la::Vector constraints(const la::Vector& x) const override;
  /// Exact gradients from CoolingSystem::gradient.
  [[nodiscard]] opt::Gradients gradients(const la::Vector& x) const override;

  /// Decode the decision vector.
  [[nodiscard]] double omega_of(const la::Vector& x) const;
  /// (I₁ … I_Z); empty for fan-only packages.
  [[nodiscard]] la::Vector currents_of(const la::Vector& x) const;
  /// The one current of a Z ≤ 1 system (0 when fan-only); throws
  /// std::logic_error when the system has several zones.
  [[nodiscard]] double current_of(const la::Vector& x) const;

  [[nodiscard]] const CoolingSystem& system() const noexcept {
    return *system_;
  }

  /// Threshold actually enforced (override or the system's T_max) [K].
  [[nodiscard]] double t_max() const noexcept { return t_max_; }

  /// Midpoint of the box — Algorithm 1's initial guess (ω_max/2, I_max/2, …).
  [[nodiscard]] la::Vector midpoint() const;

 private:
  const CoolingSystem* system_;
  Objective objective_;
  bool temperature_constraint_;
  double strictness_;
  double t_max_;
  opt::Bounds bounds_;
};

}  // namespace oftec::core
