// Transient thermal simulation types (backward Euler on the RC network).
//
// Used for the paper's Sec. 6.2 extension experiments: the Peltier effect
// responds instantly to a current step while Joule heat accumulates with the
// package RC delay, so briefly over-driving I_TEC above its steady-state
// optimum buys extra transient cooling (Ref. [8] suggests ≈ +1 A for ≈ 1 s).
// thermal::TransientEngine (thermal/transient_engine.h) integrates
// C·dT/dt = −M(ω,I)·T + rhs(ω,I) + p_leak(T) with a linearly implicit Euler
// step: the leakage is linearized on its exact tangent at the current state
// Tₙ, so p(Tₙ) goes to the right-hand side and the slope a = p′(Tₙ) enters
// the step matrix (semi-implicit in the exponential). That is backward
// Euler on the tangent, first order in dt; its fixed points are the true
// steady states.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "la/vector_ops.h"

namespace oftec::thermal {

/// Fan speed / TEC current applied at a time instant.
struct ControlSetting {
  double omega = 0.0;    ///< [rad/s]
  double current = 0.0;  ///< [A]
};

/// Control schedule: maps simulation time [s] to a setting.
using ControlSchedule = std::function<ControlSetting(double time)>;

/// Closed-loop controller: sees the current maximum chip temperature (the
/// on-die sensor reading) in addition to time. Used by the reactive
/// threshold/hysteresis controllers of Alexandrov et al. (paper ref. [5]).
using FeedbackControl =
    std::function<ControlSetting(double time, double max_chip_temperature)>;

struct TransientOptions {
  double time_step = 1e-3;   ///< [s]
  double duration = 1.0;     ///< [s]
  /// Record a sample every `record_stride` steps (1 = every step).
  std::size_t record_stride = 1;
  double runaway_temperature = 500.0;  ///< [K]
};

/// Backward-Euler step plan for one horizon: `steps` steps of `time_step`
/// each, except the final step which runs `last_step` so the integration
/// lands exactly on `duration` instead of overshooting by up to one dt
/// (`ceil`-style step counts simulate past short horizons). A remainder
/// below time_step·1e-9 is treated as rounding noise and absorbed.
struct StepPlan {
  std::size_t steps = 0;
  double last_step = 0.0;  ///< dt of the final step; 0 when steps == 0
};

/// Plan a horizon. Throws std::invalid_argument unless time_step > 0 and
/// duration >= 0.
[[nodiscard]] StepPlan plan_steps(double duration, double time_step);

struct TransientSample {
  double time = 0.0;
  double max_chip_temperature = 0.0;
  double tec_power = 0.0;
  double fan_power = 0.0;
  double leakage_power = 0.0;
};

struct TransientResult {
  std::vector<TransientSample> samples;
  la::Vector final_temperatures;  ///< empty if runaway
  bool runaway = false;
  std::size_t steps = 0;
};

}  // namespace oftec::thermal
