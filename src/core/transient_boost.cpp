#include "core/transient_boost.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "thermal/transient_engine.h"

namespace oftec::core {

BoostExperiment run_transient_boost(const CoolingSystem& system,
                                    double omega_star, double current_star,
                                    const BoostOptions& options) {
  if (!system.has_tec()) {
    throw std::invalid_argument("run_transient_boost: expected hybrid system");
  }
  const double i_max = system.current_max();
  const double boosted =
      std::min(current_star + options.boost_current, i_max);

  // Steady state at the operating point = initial condition.
  const thermal::SteadyResult steady =
      system.engine().solve({omega_star, current_star});
  if (steady.runaway) {
    throw std::invalid_argument(
        "run_transient_boost: operating point is in thermal runaway");
  }

  thermal::TransientOptions topt = options.transient;
  topt.duration = options.boost_duration + options.settle_duration;

  const thermal::TransientEngine engine(system.thermal_model(),
                                        system.cell_dynamic_power(),
                                        system.cell_leakage(), topt);

  // The boosted trace and its control are independent — fan them through
  // run_batch (bit-identical to running them serially). Jobs capture by
  // value: each may execute on a different pool thread.
  const double boost_duration = options.boost_duration;
  std::vector<thermal::TransientJob> jobs(2);
  jobs[0].control = [omega_star, boosted, current_star, boost_duration](
                        double time, double) -> thermal::ControlSetting {
    const double current = time < boost_duration ? boosted : current_star;
    return {omega_star, current};
  };
  jobs[0].initial_temperatures = steady.temperatures;
  jobs[0].options = topt;
  jobs[1].control = [omega_star, current_star](
                        double, double) -> thermal::ControlSetting {
    return {omega_star, current_star};
  };
  jobs[1].initial_temperatures = steady.temperatures;
  jobs[1].options = topt;

  BoostExperiment exp;
  exp.steady_temperature = steady.max_chip_temperature;
  std::vector<thermal::TransientResult> results = engine.run_batch(jobs);
  exp.trace = std::move(results[0]);
  exp.control = std::move(results[1]);

  exp.min_boost_temperature = exp.steady_temperature;
  exp.post_boost_peak = exp.steady_temperature;
  for (const thermal::TransientSample& s : exp.trace.samples) {
    if (s.time <= options.boost_duration) {
      if (s.max_chip_temperature < exp.min_boost_temperature) {
        exp.min_boost_temperature = s.max_chip_temperature;
        exp.time_of_minimum = s.time;
      }
    } else {
      exp.post_boost_peak =
          std::max(exp.post_boost_peak, s.max_chip_temperature);
    }
  }
  exp.transient_benefit = exp.steady_temperature - exp.min_boost_temperature;
  return exp;
}

}  // namespace oftec::core
