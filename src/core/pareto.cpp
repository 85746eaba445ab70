#include "core/pareto.h"

#include <stdexcept>

#include "util/obs.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_sweeps = obs::counter("pareto.sweeps");
const obs::Counter g_obs_points = obs::counter("pareto.points");

[[nodiscard]] ParetoPoint point_from(double t_limit_kelvin,
                                     const OftecResult& r) {
  ParetoPoint point;
  point.t_limit = t_limit_kelvin;
  point.feasible = r.success;
  point.status = r.status;
  if (r.success) {
    point.cooling_power = r.power.total();
    point.max_chip_temperature = r.max_chip_temperature;
    point.omega = r.omega;
    point.current = r.current;
  } else {
    point.max_chip_temperature = r.opt2_temperature;
  }
  return point;
}

}  // namespace

std::vector<ParetoPoint> sweep_pareto_front(
    const floorplan::Floorplan& fp, const power::PowerMap& dynamic_power,
    const power::LeakageModel& leakage, const ParetoOptions& options) {
  if (options.points < 2 || options.t_limit_hi_c <= options.t_limit_lo_c) {
    throw std::invalid_argument("sweep_pareto_front: bad threshold range");
  }
  OBS_SPAN("pareto.sweep");
  g_obs_sweeps.add();
  g_obs_points.add(options.points);

  const auto threshold_c = [&](std::size_t i) {
    return options.t_limit_lo_c +
           (options.t_limit_hi_c - options.t_limit_lo_c) *
               static_cast<double>(i) / static_cast<double>(options.points - 1);
  };

  std::vector<ParetoPoint> front(options.points);

  if (options.share_system) {
    // One memoized system serves every threshold: evaluations depend only on
    // (ω, I), so the Optimization-2 bootstrap and most SQP iterates hit the
    // shared cache after the first threshold. Each run_oftec call is
    // independent and evaluate() is thread-safe, so the sweep also fans
    // across the pool when asked.
    const CoolingSystem system(fp, dynamic_power, leakage, options.system);
    const auto run_one = [&](std::size_t i) {
      const double t_limit_k = units::celsius_to_kelvin(threshold_c(i));
      OftecOptions oftec = options.oftec;
      oftec.t_max_override = t_limit_k;
      front[i] = point_from(t_limit_k, run_oftec(system, oftec));
    };
    util::ThreadPool(options.threads).parallel_for(options.points, run_one);
    return front;
  }

  for (std::size_t i = 0; i < options.points; ++i) {
    CoolingSystem::Config cfg = options.system;
    cfg.package.t_max = units::celsius_to_kelvin(threshold_c(i));
    const CoolingSystem system(fp, dynamic_power, leakage, cfg);
    front[i] = point_from(cfg.package.t_max, run_oftec(system, options.oftec));
  }
  return front;
}

}  // namespace oftec::core
