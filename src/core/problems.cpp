#include "core/problems.h"

#include <stdexcept>
#include <string>

namespace oftec::core {

CoolingProblem::CoolingProblem(const CoolingSystem& system, Objective objective,
                               bool temperature_constraint, double strictness,
                               double t_max_override)
    : system_(&system),
      objective_(objective),
      temperature_constraint_(temperature_constraint),
      strictness_(strictness),
      t_max_(t_max_override > 0.0 ? t_max_override : system.t_max()) {
  bounds_.lower.assign(1 + system.zone_count(), 0.0);
  bounds_.upper.assign(1 + system.zone_count(), system.current_max());
  bounds_.upper[0] = system.omega_max();
}

std::size_t CoolingProblem::dimension() const {
  return bounds_.lower.size();
}

std::size_t CoolingProblem::constraint_count() const {
  return temperature_constraint_ ? 1 : 0;
}

const opt::Bounds& CoolingProblem::bounds() const { return bounds_; }

double CoolingProblem::omega_of(const la::Vector& x) const {
  if (x.size() != dimension()) {
    throw std::invalid_argument("CoolingProblem: bad decision vector");
  }
  return x[0];
}

la::Vector CoolingProblem::currents_of(const la::Vector& x) const {
  if (x.size() != dimension()) {
    throw std::invalid_argument("CoolingProblem: bad decision vector");
  }
  return la::Vector(x.begin() + 1, x.end());
}

double CoolingProblem::current_of(const la::Vector& x) const {
  if (dimension() > 2) {
    throw std::logic_error("CoolingProblem: no single current for " +
                           std::to_string(dimension() - 1) + " TEC zones");
  }
  const la::Vector currents = currents_of(x);
  return currents.empty() ? 0.0 : currents[0];
}

double CoolingProblem::objective(const la::Vector& x) const {
  const Evaluation& ev = system_->evaluate(omega_of(x), currents_of(x));
  return objective_ == Objective::kCoolingPower ? ev.cooling_power()
                                                : ev.max_chip_temperature;
}

la::Vector CoolingProblem::constraints(const la::Vector& x) const {
  if (!temperature_constraint_) return {};
  const Evaluation& ev = system_->evaluate(omega_of(x), currents_of(x));
  return {ev.max_chip_temperature - (t_max_ - strictness_)};
}

opt::Gradients CoolingProblem::gradients(const la::Vector& x) const {
  EvaluationGradient g = system_->gradient(omega_of(x), currents_of(x));
  opt::Gradients out;
  if (temperature_constraint_) {
    out.constraints.push_back(g.max_chip_temperature);
  }
  out.objective = objective_ == Objective::kCoolingPower
                      ? std::move(g.cooling_power)
                      : std::move(g.max_chip_temperature);
  return out;
}

la::Vector CoolingProblem::midpoint() const {
  la::Vector x(dimension());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * (bounds_.lower[i] + bounds_.upper[i]);
  }
  return x;
}

}  // namespace oftec::core
