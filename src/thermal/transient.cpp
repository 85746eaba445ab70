#include "thermal/transient.h"

#include <cmath>
#include <stdexcept>

namespace oftec::thermal {

StepPlan plan_steps(double duration, double time_step) {
  if (!(time_step > 0.0) || duration < 0.0) {
    throw std::invalid_argument("plan_steps: bad time parameters");
  }
  StepPlan plan;
  const double full = std::floor(duration / time_step);
  plan.steps = static_cast<std::size_t>(full);
  double remainder = duration - full * time_step;
  if (remainder < 0.0) remainder = 0.0;
  if (remainder > time_step * 1e-9) {
    ++plan.steps;
    plan.last_step = remainder;
  } else if (plan.steps > 0) {
    plan.last_step = time_step;
  }
  return plan;
}

}  // namespace oftec::thermal
