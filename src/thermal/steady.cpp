#include "thermal/steady.h"

#include <cmath>
#include <stdexcept>

#include "thermal/solve_engine.h"

namespace oftec::thermal {

SteadySolver::SteadySolver(const ThermalModel& model,
                           la::Vector cell_dynamic_power,
                           std::vector<power::ExponentialTerm> cell_leakage,
                           SteadyOptions options)
    : model_(&model),
      dynamic_(std::move(cell_dynamic_power)),
      leakage_(std::move(cell_leakage)),
      options_(options) {
  const std::size_t cells = model.layout().cells_per_layer();
  if (dynamic_.size() != cells || leakage_.size() != cells) {
    throw std::invalid_argument("SteadySolver: per-cell arity mismatch");
  }
  for (const double p : dynamic_) {
    if (p < 0.0 || !std::isfinite(p)) {
      throw std::invalid_argument("SteadySolver: bad dynamic power");
    }
  }
}

SteadyResult make_runaway_result(std::size_t iterations, SolveStatus status) {
  SteadyResult res;
  res.runaway = true;
  res.status = status;
  res.iterations = iterations;
  return res;
}

SteadyResult make_steady_result(
    const ThermalModel& model, la::Vector temperatures, bool converged,
    std::size_t iterations, const la::Vector& cell_current,
    const std::vector<power::ExponentialTerm>& cell_leakage) {
  SteadyResult res;
  res.temperatures = std::move(temperatures);
  res.converged = converged;
  res.status = converged ? SolveStatus::kOk : SolveStatus::kNotConverged;
  res.iterations = iterations;
  res.chip_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kChip);
  res.cold_side_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kTecAbs);
  res.hot_side_temperatures =
      model.slab_temperatures(res.temperatures, Slab::kTecRej);
  res.max_chip_temperature = la::max_element_value(res.chip_temperatures);
  res.leakage_power = model.leakage_power(res.temperatures, cell_leakage);
  res.tec_power = model.tec_power(res.temperatures, cell_current);
  return res;
}

SteadyResult SteadySolver::solve(double omega, double current) const {
  return SolveEngine(*this).solve({omega, current});
}

}  // namespace oftec::thermal
