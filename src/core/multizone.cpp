#include "core/multizone.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/problems.h"
#include "floorplan/grid_map.h"
#include "opt/sqp.h"
#include "util/obs.h"
#include "util/stopwatch.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_runs = obs::counter("multizone.runs");

[[nodiscard]] bool is_integer_cluster_unit(const std::string& name) {
  return name == "IntExec" || name == "IntReg" || name == "IntQ" ||
         name == "IntMap" || name == "LdStQ" || name == "DTB";
}

[[nodiscard]] bool is_fp_cluster_unit(const std::string& name) {
  return name.rfind("FP", 0) == 0;  // FPAdd, FPMul, FPReg, FPMap, FPQ
}

}  // namespace

ZonePartition ZonePartition::by_unit_cluster(const floorplan::Floorplan& fp,
                                             std::size_t nx, std::size_t ny) {
  const floorplan::GridMap grid(fp, nx, ny);
  const std::vector<bool> covered = grid.tec_coverage();

  ZonePartition part;
  part.zone_of_cell.assign(grid.cell_count(), kUnzoned);
  part.zone_names = {"int", "fp", "misc"};
  part.zone_count = 3;

  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    if (!covered[cell]) continue;
    const std::string& unit = fp.blocks()[grid.dominant_block(cell)].name;
    if (is_integer_cluster_unit(unit)) {
      part.zone_of_cell[cell] = 0;
    } else if (is_fp_cluster_unit(unit)) {
      part.zone_of_cell[cell] = 1;
    } else {
      part.zone_of_cell[cell] = 2;
    }
  }
  return part;
}

ZonePartition ZonePartition::single_zone(const floorplan::Floorplan& fp,
                                         std::size_t nx, std::size_t ny) {
  const floorplan::GridMap grid(fp, nx, ny);
  const std::vector<bool> covered = grid.tec_coverage();
  ZonePartition part;
  part.zone_of_cell.assign(grid.cell_count(), kUnzoned);
  part.zone_names = {"all"};
  part.zone_count = 1;
  for (std::size_t cell = 0; cell < grid.cell_count(); ++cell) {
    if (covered[cell]) part.zone_of_cell[cell] = 0;
  }
  return part;
}

la::Vector ZonePartition::expand(const la::Vector& zone_currents) const {
  if (zone_currents.size() != zone_count) {
    throw std::invalid_argument("ZonePartition::expand: arity mismatch");
  }
  la::Vector out(zone_of_cell.size(), 0.0);
  for (std::size_t cell = 0; cell < zone_of_cell.size(); ++cell) {
    if (zone_of_cell[cell] != kUnzoned) {
      out[cell] = zone_currents[zone_of_cell[cell]];
    }
  }
  return out;
}

MultiZoneSystem::MultiZoneSystem(const floorplan::Floorplan& fp,
                                 const power::PowerMap& dynamic_power,
                                 const power::LeakageModel& leakage,
                                 ZonePartition partition,
                                 CoolingSystem::Config config)
    : partition_(std::move(partition)), memo_(config.cache_limit) {
  if (partition_.zone_count == 0) {
    throw std::invalid_argument("MultiZoneSystem: empty partition");
  }
  // The partition implies the coverage.
  std::vector<bool> coverage(partition_.zone_of_cell.size(), false);
  for (std::size_t cell = 0; cell < coverage.size(); ++cell) {
    coverage[cell] = partition_.zone_of_cell[cell] != ZonePartition::kUnzoned;
  }
  config.tec_coverage = std::move(coverage);
  model_ = std::make_unique<thermal::ThermalModel>(
      std::move(config.package), fp, config.grid_nx, config.grid_ny,
      std::move(config.tec_coverage));
  if (partition_.zone_of_cell.size() != model_->layout().cells_per_layer()) {
    throw std::invalid_argument(
        "MultiZoneSystem: partition grid does not match config grid");
  }
  solver_ = std::make_unique<thermal::SteadySolver>(
      *model_, model_->distribute(dynamic_power),
      model_->cell_leakage(leakage), config.steady);
  engine_ = std::make_unique<thermal::SolveEngine>(*solver_, config.engine);
}

double MultiZoneSystem::t_max() const noexcept {
  return model_->config().t_max;
}

double MultiZoneSystem::omega_max() const noexcept {
  return model_->config().fan.max_speed;
}

double MultiZoneSystem::current_max() const noexcept {
  return model_->config().tec.max_current;
}

std::vector<double> MultiZoneSystem::key_of(
    double omega, const la::Vector& zone_currents) const {
  if (zone_currents.size() != partition_.zone_count) {
    throw std::invalid_argument("MultiZoneSystem::evaluate: arity mismatch");
  }
  if (!(omega >= 0.0) || omega > omega_max() * (1.0 + 1e-9)) {
    throw std::invalid_argument("MultiZoneSystem::evaluate: omega range");
  }
  for (const double current : zone_currents) {
    if (!(current >= 0.0) || current > current_max() * (1.0 + 1e-9)) {
      throw std::invalid_argument("MultiZoneSystem::evaluate: current range");
    }
  }
  std::vector<double> key;
  key.reserve(1 + zone_currents.size());
  key.push_back(omega);
  key.insert(key.end(), zone_currents.begin(), zone_currents.end());
  return key;
}

const Evaluation& MultiZoneSystem::evaluate(
    double omega, const la::Vector& zone_currents) const {
  std::vector<double> key = key_of(omega, zone_currents);
  if (const Evaluation* hit = memo_.find(key)) return *hit;

  // Engine solves are pure functions of (ω, cell currents) — see
  // CoolingSystem::evaluate for the concurrency contract.
  thermal::SteadyResult sr =
      engine_->solve_cells(omega, partition_.expand(zone_currents));
  Evaluation ev = make_evaluation(*model_, sr, omega);
  return memo_.insert(std::move(key), std::move(ev),
                      std::move(sr.temperatures));
}

EvaluationGradient MultiZoneSystem::gradient(
    double omega, const la::Vector& zone_currents) const {
  std::vector<la::Vector> directions(
      partition_.zone_count, la::Vector(partition_.zone_of_cell.size(), 0.0));
  for (std::size_t cell = 0; cell < partition_.zone_of_cell.size(); ++cell) {
    const std::size_t zone = partition_.zone_of_cell[cell];
    if (zone != ZonePartition::kUnzoned) directions[zone][cell] = 1.0;
  }
  return memo_.gradient(key_of(omega, zone_currents), *engine_, omega,
                        partition_.expand(zone_currents), directions);
}

MultiZoneProblem::MultiZoneProblem(const MultiZoneSystem& system,
                                   Objective objective,
                                   bool temperature_constraint,
                                   double strictness)
    : system_(&system),
      objective_(objective),
      temperature_constraint_(temperature_constraint),
      strictness_(strictness) {
  const std::size_t zones = system.partition().zone_count;
  bounds_.lower.assign(1 + zones, 0.0);
  bounds_.upper.assign(1 + zones, system.current_max());
  bounds_.upper[0] = system.omega_max();
}

std::size_t MultiZoneProblem::dimension() const {
  return bounds_.lower.size();
}

std::size_t MultiZoneProblem::constraint_count() const {
  return temperature_constraint_ ? 1 : 0;
}

const opt::Bounds& MultiZoneProblem::bounds() const { return bounds_; }

double MultiZoneProblem::omega_of(const la::Vector& x) const {
  if (x.size() != dimension()) {
    throw std::invalid_argument("MultiZoneProblem: bad decision vector");
  }
  return x[0];
}

la::Vector MultiZoneProblem::currents_of(const la::Vector& x) const {
  if (x.size() != dimension()) {
    throw std::invalid_argument("MultiZoneProblem: bad decision vector");
  }
  return la::Vector(x.begin() + 1, x.end());
}

double MultiZoneProblem::objective(const la::Vector& x) const {
  const Evaluation& ev = system_->evaluate(omega_of(x), currents_of(x));
  return objective_ == Objective::kCoolingPower ? ev.cooling_power()
                                                : ev.max_chip_temperature;
}

la::Vector MultiZoneProblem::constraints(const la::Vector& x) const {
  if (!temperature_constraint_) return {};
  const Evaluation& ev = system_->evaluate(omega_of(x), currents_of(x));
  return {ev.max_chip_temperature - (system_->t_max() - strictness_)};
}

opt::Gradients MultiZoneProblem::gradients(const la::Vector& x) const {
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

la::Vector MultiZoneProblem::midpoint() const {
  la::Vector x(dimension());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * (bounds_.lower[i] + bounds_.upper[i]);
  }
  return x;
}

MultiZoneResult run_multizone_oftec(const MultiZoneSystem& system,
                                    const opt::SqpOptions& sqp,
                                    double feasibility_margin) {
  OBS_SPAN("multizone.run");
  g_obs_runs.add();
  const util::Stopwatch watch;
  const std::size_t solves_before = system.evaluation_count();

  const MultiZoneProblem opt2(system,
                              MultiZoneProblem::Objective::kMaxTemperature,
                              /*temperature_constraint=*/false);
  const MultiZoneProblem opt1(system,
                              MultiZoneProblem::Objective::kCoolingPower,
                              /*temperature_constraint=*/true);
  const double t_max = system.t_max();
  const double stop_threshold = t_max - feasibility_margin;

  MultiZoneResult result;
  la::Vector x = opt2.midpoint();
  double temperature = opt2.objective(x);

  if (!(temperature < t_max)) {
    result.used_opt2 = true;
    const opt::OptResult r2 = opt::solve_sqp(
        opt2, x, sqp, [&](const la::Vector&, double objective) {
          return objective < stop_threshold;
        });
    x = r2.x;
    temperature = r2.objective;
    if (!(temperature < t_max)) {
      result.success = false;
      result.status = is_definitive(r2.status) ? SolveStatus::kRunaway
                                               : r2.status;
      result.omega = opt2.omega_of(x);
      result.zone_currents = opt2.currents_of(x);
      result.max_chip_temperature = temperature;
      result.runtime_ms = watch.elapsed_ms();
      result.thermal_solves = system.evaluation_count() - solves_before;
      return result;
    }
  }

  const opt::OptResult r1 = opt::solve_sqp(opt1, x, sqp, nullptr);
  la::Vector x_star = r1.x;
  const Evaluation* ev =
      &system.evaluate(opt1.omega_of(x_star), opt1.currents_of(x_star));
  if (ev->runaway || !(ev->max_chip_temperature < t_max)) {
    x_star = x;
    ev = &system.evaluate(opt1.omega_of(x_star), opt1.currents_of(x_star));
  }

  result.success = true;
  result.status = SolveStatus::kOk;
  result.omega = opt1.omega_of(x_star);
  result.zone_currents = opt1.currents_of(x_star);
  result.max_chip_temperature = ev->max_chip_temperature;
  result.power = ev->power;
  result.runtime_ms = watch.elapsed_ms();
  result.thermal_solves = system.evaluation_count() - solves_before;
  return result;
}

}  // namespace oftec::core
