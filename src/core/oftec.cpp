#include "core/oftec.h"

#include <cmath>
#include <limits>

#include "core/problems.h"
#include "util/obs.h"
#include "util/stopwatch.h"

namespace oftec::core {

namespace {

/// Optimization 2 stops as soon as 𝒯 < T_max − margin [K]; the margin keeps
/// the Optimization 1 start strictly feasible.
constexpr double kFeasibilityMargin = 0.25;

const obs::Counter g_obs_runs = obs::counter("oftec.runs");
const obs::Counter g_obs_opt2_bootstraps = obs::counter("oftec.opt2_bootstraps");
const obs::Counter g_obs_infeasible = obs::counter("oftec.infeasible");
const obs::Histogram g_obs_runtime_ms =
    obs::histogram("oftec.runtime_ms", obs::exponential_bounds(1.0, 2.0, 14));
const obs::Histogram g_obs_thermal_solves = obs::histogram(
    "oftec.thermal_solves", {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});

/// OftecResult::current of a point's zone currents.
[[nodiscard]] double shared_current(const la::Vector& zone_currents) {
  if (zone_currents.size() > 1) return std::numeric_limits<double>::quiet_NaN();
  return zone_currents.empty() ? 0.0 : zone_currents[0];
}

}  // namespace

MinTemperatureResult run_min_temperature(const CoolingSystem& system,
                                         const OftecOptions& options) {
  OBS_SPAN("oftec.min_temperature");
  const util::Stopwatch watch;
  const std::size_t solves_before = system.evaluation_count();

  const CoolingProblem opt2(system, CoolingProblem::Objective::kMaxTemperature,
                            /*temperature_constraint=*/false);
  const opt::OptResult r = options.solver(opt2, opt2.midpoint(), nullptr);

  MinTemperatureResult result;
  result.omega = opt2.omega_of(r.x);
  result.zone_currents = opt2.currents_of(r.x);
  result.current = shared_current(result.zone_currents);
  result.max_chip_temperature = r.objective;
  result.finite = std::isfinite(r.objective);
  if (result.finite) {
    result.power = system.evaluate(result.omega, result.zone_currents).power;
  }
  result.runtime_ms = watch.elapsed_ms();
  result.thermal_solves = system.evaluation_count() - solves_before;
  return result;
}

OftecResult run_oftec(const CoolingSystem& system, const OftecOptions& options) {
  OBS_SPAN("oftec.run");
  g_obs_runs.add();
  const util::Stopwatch watch;
  const std::size_t solves_before = system.evaluation_count();

  OftecResult result;

  const CoolingProblem opt2(system, CoolingProblem::Objective::kMaxTemperature,
                            /*temperature_constraint=*/false);
  const CoolingProblem opt1(system, CoolingProblem::Objective::kCoolingPower,
                            /*temperature_constraint=*/true,
                            /*strictness=*/0.01, options.t_max_override);

  const double t_max = opt1.t_max();
  const double stop_threshold = t_max - kFeasibilityMargin;

  // Line 1: start at the middle of the (ω, I) box.
  la::Vector x = opt2.midpoint();
  double temperature = opt2.objective(x);

  // Lines 2–5: bootstrap feasibility via Optimization 2.
  if (!(temperature < t_max)) {
    OBS_SPAN("oftec.opt2");
    result.used_opt2 = true;
    g_obs_opt2_bootstraps.add();
    const opt::StopPredicate early_stop =
        [&](const la::Vector&, double objective) {
          return objective < stop_threshold;
        };
    const opt::OptResult r2 = options.solver(opt2, x, early_stop);
    x = r2.x;
    temperature = r2.objective;
    if (!(temperature < t_max)) {
      // Line 5: infeasible — report the best temperature found. When the
      // Optimization 2 solver itself converged (or proved runaway), that is
      // a definitive "no feasible operating point" verdict; when it merely
      // ran out of budget, report its failure so a fallback tier can retry
      // with a different method instead of trusting a truncated search.
      g_obs_infeasible.add();
      result.success = false;
      result.status = is_definitive(r2.status) ? SolveStatus::kRunaway
                                               : r2.status;
      result.opt2_omega = opt2.omega_of(x);
      result.opt2_current = shared_current(opt2.currents_of(x));
      result.opt2_temperature = temperature;
      if (std::isfinite(temperature)) {
        result.opt2_power =
            system.evaluate(result.opt2_omega, opt2.currents_of(x)).power;
      }
      result.runtime_ms = watch.elapsed_ms();
      result.thermal_solves = system.evaluation_count() - solves_before;
      if (obs::enabled()) {
        g_obs_runtime_ms.observe(result.runtime_ms);
        g_obs_thermal_solves.observe(
            static_cast<double>(result.thermal_solves));
      }
      return result;
    }
  }
  result.opt2_omega = opt2.omega_of(x);
  result.opt2_current = shared_current(opt2.currents_of(x));
  result.opt2_temperature = temperature;
  result.opt2_power =
      system.evaluate(result.opt2_omega, opt2.currents_of(x)).power;

  // Line 6: minimize cooling power from the feasible start.
  OBS_SPAN("oftec.opt1");
  const opt::OptResult r1 = options.solver(opt1, x, nullptr);

  // Guard against a solver returning an infeasible "optimum": fall back to
  // the Optimization 2 point, which is feasible by construction.
  la::Vector x_star = r1.x;
  const Evaluation* ev = &system.evaluate(opt1.omega_of(x_star),
                                          opt1.currents_of(x_star));
  if (ev->runaway || !(ev->max_chip_temperature < t_max)) {
    x_star = x;
    ev = &system.evaluate(opt1.omega_of(x_star), opt1.currents_of(x_star));
  }

  result.success = true;
  result.status = SolveStatus::kOk;
  result.omega = opt1.omega_of(x_star);
  result.zone_currents = opt1.currents_of(x_star);
  result.current = shared_current(result.zone_currents);
  result.max_chip_temperature = ev->max_chip_temperature;
  result.power = ev->power;
  result.runtime_ms = watch.elapsed_ms();
  result.thermal_solves = system.evaluation_count() - solves_before;
  if (obs::enabled()) {
    g_obs_runtime_ms.observe(result.runtime_ms);
    g_obs_thermal_solves.observe(static_cast<double>(result.thermal_solves));
  }
  return result;
}

}  // namespace oftec::core
