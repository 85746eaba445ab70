// Transient thermal simulation types (backward Euler on the RC network).
//
// Used for the paper's Sec. 6.2 extension experiments: the Peltier effect
// responds instantly to a current step while Joule heat accumulates with the
// package RC delay, so briefly over-driving I_TEC above its steady-state
// optimum buys extra transient cooling (Ref. [8] suggests ≈ +1 A for ≈ 1 s).
// thermal::TransientEngine (thermal/transient_engine.h) integrates
// C·dT/dt = −M(ω,I)·T + rhs(ω,I) + p_leak(T) with a linearly implicit Euler
// step: the exact leakage p(Tₙ) of the current state goes to the right-hand
// side, and only its slope a ≈ ∂p/∂T enters the step matrix (semi-implicit
// in the exponential). With a = p′(Tₙ) this is backward Euler on the
// tangent; with a held slope it is a W-method (Steihaug & Wolfbrandt, Math.
// Comp. 33, 1979): still first order for any a, and its fixed points are the
// true steady states, because the slope only multiplies
// ΔT = Tₙ₊₁ − Tₙ. TransientOptions::relinearization_threshold says how far a
// held slope may drift before it is refreshed.
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

/// Default relative tolerance on the held leakage slopes. A cell's slope
/// β·p(T) moves by a factor e^(β·ΔT), so 0.1 lets the chip drift
/// ln(1.1)/β ≈ 3.2 K at β = 0.030/K before the step matrix changes. On the
/// `dtm_lut` pool (64 LUT-driven 0.5-s segments at the 10×10 model, 10-ms
/// steps) it makes 0.04 factorizations per step instead of 1 and keeps the
/// per-sample max chip temperature within 0.03 K of tolerance 0, two orders
/// below backward Euler's own error at that step (≈ 1.6 K max). Tighter
/// tolerances buy little accuracy for many more factorizations; looser ones
/// save few factorizations (docs/solver.md, "Held leakage slopes").
inline constexpr double kDefaultRelinearizationThreshold = 0.1;

struct TransientOptions {
  double time_step = 1e-3;   ///< [s]
  double duration = 1.0;     ///< [s]
  /// Record a sample every `record_stride` steps (1 = every step).
  std::size_t record_stride = 1;
  double runaway_temperature = 500.0;  ///< [K]
  /// Relative tolerance ε on the held leakage slopes (dimensionless, ≥ 0).
  /// Every step evaluates each chip cell's exact leakage pᵢ(Tₙ) and slope
  /// βᵢ·pᵢ(Tₙ); the step matrix sees only the held slopes aᵢ, which are
  /// refreshed — all cells at once — when some cell's exact slope differs
  /// from its held one by more than ε·aᵢ. Between refreshes the step matrix
  /// is bit-constant under a held setting, which is what lets
  /// TransientEngine reuse one factorization across many steps. The hold
  /// misstates no power at the current state, only the slope applied to
  /// ΔT, so it adds an O(ε·dt) term to backward Euler's O(dt) error and
  /// leaves the steady states alone. 0 refreshes whenever a slope moves:
  /// backward Euler on the exact leakage tangent at every step.
  double relinearization_threshold = kDefaultRelinearizationThreshold;
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
