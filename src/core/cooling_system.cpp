#include "core/cooling_system.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "la/vector_ops.h"
#include "util/obs.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_evaluations = obs::counter("cooling.evaluations");
const obs::Counter g_obs_cache_hits = obs::counter("cooling.cache_hits");
const obs::Gauge g_obs_cache_hit_rate = obs::gauge("cooling.eval_cache_hit_rate");

}  // namespace

double Evaluation::cooling_power() const noexcept {
  if (runaway) return std::numeric_limits<double>::infinity();
  return power.total();
}

Evaluation make_evaluation(const thermal::ThermalModel& model,
                           const thermal::SteadyResult& result, double omega) {
  Evaluation ev;
  ev.status = result.status;
  if (result.runaway || !result.converged) {
    ev.runaway = true;
    ev.max_chip_temperature = std::numeric_limits<double>::infinity();
  } else {
    ev.max_chip_temperature = result.max_chip_temperature;
    ev.power.leakage = result.leakage_power;
    ev.power.tec = result.tec_power;
    ev.power.fan = model.config().fan.power(omega);
  }
  ev.solver_iterations = result.iterations;
  return ev;
}

EvaluationGradient EvaluationGradient::unavailable(std::size_t params) {
  const double inf = std::numeric_limits<double>::infinity();
  return {la::Vector(params, inf), la::Vector(params, inf)};
}

EvaluationGradient make_gradient(
    const thermal::SolveEngine& engine, double omega,
    const la::Vector& cell_current, const la::Vector& temperatures,
    const std::vector<la::Vector>& current_directions) {
  const std::size_t params = 1 + current_directions.size();
  const std::vector<la::Vector> tangents =
      engine.tangents(omega, cell_current, temperatures, current_directions);
  if (tangents.empty()) return EvaluationGradient::unavailable(params);

  const thermal::SteadySolver& solver = engine.solver();
  const thermal::ThermalModel& model = solver.model();
  // 𝒯 follows the chip cell that max_slab_temperature picks.
  const std::size_t hot = model.layout().node(
      thermal::Slab::kChip,
      la::argmax(model.slab_temperatures(temperatures, thermal::Slab::kChip)));
  const la::Vector fixed_currents;  // ω moves no current
  EvaluationGradient g;
  g.max_chip_temperature.resize(params);
  g.cooling_power.resize(params);
  for (std::size_t k = 0; k < params; ++k) {
    const la::Vector& dt = tangents[k];
    g.max_chip_temperature[k] = dt[hot];
    g.cooling_power[k] =
        model.leakage_power_tangent(temperatures, solver.cell_leakage(), dt) +
        model.tec_power_tangent(
            temperatures, cell_current, dt,
            k == 0 ? fixed_currents : current_directions[k - 1]) +
        (k == 0 ? model.config().fan.power_derivative(omega) : 0.0);
  }
  return g;
}

CoolingSystem::CoolingSystem(const floorplan::Floorplan& fp,
                             const power::PowerMap& dynamic_power,
                             const power::LeakageModel& leakage,
                             Config config)
    : memo_(config.cache_limit) {
  // Validate the workload at the boundary: a NaN or negative watt entry
  // would otherwise surface deep inside the solver as a mysterious runaway
  // (or worse, a silently wrong answer fed to the optimizer).
  if (&dynamic_power.floorplan() != &fp) {
    throw std::invalid_argument(
        "CoolingSystem: power map is bound to a different floorplan");
  }
  if (dynamic_power.values().size() != fp.block_count()) {
    throw std::invalid_argument(
        "CoolingSystem: power map arity does not match the floorplan");
  }
  for (std::size_t b = 0; b < dynamic_power.values().size(); ++b) {
    const double w = dynamic_power.values()[b];
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "CoolingSystem: power map entry for block '" + fp.blocks()[b].name +
          "' is " + (std::isfinite(w) ? "negative" : "not finite"));
    }
  }
  const std::size_t cells = config.grid_nx * config.grid_ny;
  std::optional<std::vector<bool>> coverage;  // empty → the default policy
  if (config.zones) {
    const ZonePartition& zones = *config.zones;
    if (!config.package.has_tec || zones.zone_count == 0 ||
        zones.zone_of_cell.size() != cells) {
      throw std::invalid_argument(
          "CoolingSystem: zones need a TEC package, at least one zone and "
          "one entry per grid cell");
    }
    coverage.emplace(cells, false);
    directions_.assign(zones.zone_count, la::Vector(cells, 0.0));
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::size_t zone = zones.zone_of_cell[cell];
      if (zone == ZonePartition::kUnzoned) continue;
      if (zone >= zones.zone_count) {
        throw std::invalid_argument("CoolingSystem: zone index out of range");
      }
      (*coverage)[cell] = true;
      directions_[zone][cell] = 1.0;
    }
  } else if (config.package.has_tec) {
    directions_.emplace_back(cells, 1.0);
  }
  model_ = std::make_unique<thermal::ThermalModel>(
      std::move(config.package), fp, config.grid_nx, config.grid_ny,
      std::move(coverage));
  solver_ = std::make_unique<thermal::SteadySolver>(
      *model_, model_->distribute(dynamic_power), model_->cell_leakage(leakage),
      config.steady);
  engine_ = std::make_unique<thermal::SolveEngine>(*solver_, config.engine);
}

la::Vector CoolingSystem::point_of(double omega,
                                   const la::Vector& currents) const {
  if (!(omega >= 0.0) || omega > omega_max() * (1.0 + 1e-9)) {
    throw std::invalid_argument("CoolingSystem::evaluate: omega out of range");
  }
  if (currents.size() != zone_count()) {
    throw std::invalid_argument(
        "CoolingSystem::evaluate: one current per TEC zone expected");
  }
  for (const double current : currents) {
    if (!(current >= 0.0) || current > current_max() * (1.0 + 1e-9)) {
      throw std::invalid_argument(
          "CoolingSystem::evaluate: current out of range");
    }
  }
  la::Vector point{omega};
  point.insert(point.end(), currents.begin(), currents.end());
  return point;
}

la::Vector CoolingSystem::single_current(double current) const {
  if (zone_count() > 1) {
    throw std::logic_error(
        "CoolingSystem: a single current cannot drive " +
        std::to_string(zone_count()) + " TEC zones");
  }
  if (zone_count() == 1) return {current};
  if (current != 0.0) {
    throw std::invalid_argument(
        "CoolingSystem::evaluate: current out of range");
  }
  return {};
}

la::Vector CoolingSystem::cell_currents(const la::Vector& currents) const {
  if (currents.size() != zone_count()) {
    throw std::invalid_argument(
        "CoolingSystem::cell_currents: one current per TEC zone expected");
  }
  la::Vector cell_current(model_->layout().cells_per_layer(), 0.0);
  for (std::size_t z = 0; z < directions_.size(); ++z) {
    la::axpy(currents[z], directions_[z], cell_current);
  }
  return cell_current;
}

const Evaluation& CoolingSystem::evaluate(double omega,
                                          const la::Vector& currents) const {
  la::Vector point = point_of(omega, currents);
  g_obs_evaluations.add();
  if (const Evaluation* hit = memo_.find(point)) {
    g_obs_cache_hits.add();
    if (obs::enabled()) {
      const auto hits = static_cast<double>(memo_.hits());
      g_obs_cache_hit_rate.set(
          hits / (hits + static_cast<double>(memo_.solves())));
    }
    return *hit;
  }

  // Solve outside the lock — the engine is internally synchronized, and the
  // solve is a pure function of the point, so concurrent duplicate solves
  // of the same point produce identical Evaluations.
  thermal::SteadyResult sr =
      engine_->solve_cells(omega, cell_currents(currents));
  Evaluation ev = make_evaluation(*model_, sr, omega);
  return memo_.insert(std::move(point), std::move(ev),
                      std::move(sr.temperatures));
}

const Evaluation& CoolingSystem::evaluate(double omega, double current) const {
  return evaluate(omega, single_current(current));
}

EvaluationGradient CoolingSystem::gradient(double omega,
                                           const la::Vector& currents) const {
  return memo_.gradient(point_of(omega, currents), *engine_,
                        cell_currents(currents), directions_);
}

EvaluationGradient CoolingSystem::gradient(double omega, double current) const {
  return gradient(omega, single_current(current));
}

double CoolingSystem::t_max() const noexcept { return model_->config().t_max; }

double CoolingSystem::ambient() const noexcept {
  return model_->config().ambient;
}

double CoolingSystem::omega_max() const noexcept {
  return model_->config().fan.max_speed;
}

double CoolingSystem::current_max() const noexcept {
  return has_tec() ? model_->config().tec.max_current : 0.0;
}

bool CoolingSystem::has_tec() const noexcept {
  return model_->tec_array() != nullptr;
}

const la::Vector& CoolingSystem::cell_dynamic_power() const noexcept {
  return solver_->cell_dynamic_power();
}

const std::vector<power::ExponentialTerm>& CoolingSystem::cell_leakage()
    const noexcept {
  return solver_->cell_leakage();
}

}  // namespace oftec::core
