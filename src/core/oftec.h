// OFTEC — Algorithm 1 of the paper.
//
//   1. x0 ← (ω_max/2, I_max/2)
//   2. if 𝒯(x0) > T_max:
//   3.     x1 ← active-set SQP on Optimization 2 from x0,
//          stopping early as soon as 𝒯 < T_max
//   4.     if 𝒯(x1) > T_max: return failed (problem infeasible)
//   5. x* ← active-set SQP on Optimization 1 from x1
//   6. return (ω*, I_TEC*)
//
// The same run serves every CoolingSystem: x = (ω) for a fan-only package,
// (ω, I_TEC) for the paper's single series current, and (ω, I₁ … I_Z) for
// a system built with a ZonePartition (multizone.h). Both phases run one
// PhaseSolver: active-set SQP, the method Sec. 5.2 chose; the DTM loop's
// last fallback tier passes a grid search instead.
#pragma once

#include <functional>

#include "core/cooling_system.h"
#include "opt/sqp.h"

namespace oftec::core {

/// Runs one phase of Algorithm 1: minimize `problem` from x0, stopping as
/// soon as `stop` accepts an iterate (line 3's early stop; null for
/// Optimization 1 and for run_min_temperature).
using PhaseSolver = std::function<opt::OptResult(
    const opt::Problem& problem, const la::Vector& x0,
    const opt::StopPredicate& stop)>;

struct OftecOptions {
  /// The solver of both phases; active-set SQP by default.
  PhaseSolver solver = [](const opt::Problem& problem, const la::Vector& x0,
                          const opt::StopPredicate& stop) {
    return opt::solve_sqp(problem, x0, {}, stop);
  };
  /// Thermal threshold override [K]; 0 → the system's T_max. Evaluations
  /// are threshold-independent, so sweeping this on one shared (memoized)
  /// CoolingSystem reuses every thermal solve across thresholds — the
  /// Pareto front for the price of roughly one OFTEC run.
  double t_max_override = 0.0;
};

struct OftecResult {
  bool success = false;      ///< a feasible (ω*, I*) was found
  /// Structured outcome. kOk accompanies success; kRunaway means the problem
  /// is provably infeasible (every probe hit runaway); kNotConverged and
  /// friends mean the numerics gave out — callers with a fallback chain
  /// (dtm_loop) only treat is_definitive() results as final.
  SolveStatus status = SolveStatus::kNotConverged;
  bool used_opt2 = false;    ///< the bootstrap phase ran
  double omega = 0.0;        ///< ω* [rad/s]
  /// I_TEC* [A] of a single-current system (0 when fan-only); NaN when the
  /// system drives several TEC zones — read zone_currents instead.
  double current = 0.0;
  la::Vector zone_currents;  ///< (I₁* … I_Z*) [A]; empty when fan-only
  double max_chip_temperature = 0.0;  ///< 𝒯 at the solution [K]
  CoolingBreakdown power;    ///< 𝒫 breakdown at the solution
  /// 𝒯-minimizing point found by the Optimization 2 phase (valid when
  /// used_opt2; equals the start otherwise). opt2_current follows `current`.
  double opt2_omega = 0.0;
  double opt2_current = 0.0;
  double opt2_temperature = 0.0;
  CoolingBreakdown opt2_power;
  double runtime_ms = 0.0;
  std::size_t thermal_solves = 0;  ///< uncached simulator invocations
};

/// Run Algorithm 1 on a hybrid (TEC + fan) system, over one current per TEC
/// zone. Also accepts fan-only systems (decision vector degenerates to ω) —
/// that is exactly the paper's variable-ω baseline ("the speed is set using
/// a method similar to OFTEC with the difference that no TEC current is
/// required to be found").
[[nodiscard]] OftecResult run_oftec(const CoolingSystem& system,
                                    const OftecOptions& options = {});

/// Result of a standalone Optimization 2 run (minimize the maximum die
/// temperature over the box, no early stop). This is the experiment behind
/// Fig. 6(c,d) — "an interesting problem by itself ... as long as the
/// cooling power consumption is not a concern" (Sec. 5.2).
struct MinTemperatureResult {
  bool finite = false;  ///< a non-runaway operating point was found
  double omega = 0.0;
  double current = 0.0;      ///< as OftecResult::current
  la::Vector zone_currents;  ///< as OftecResult::zone_currents
  double max_chip_temperature = 0.0;  ///< the minimized 𝒯 [K]
  CoolingBreakdown power;             ///< 𝒫 at the 𝒯-minimizing point
  double runtime_ms = 0.0;
  std::size_t thermal_solves = 0;
};

/// Minimize 𝒯(ω, I₁ … I_Z) to convergence (Optimization 2 run in
/// isolation).
[[nodiscard]] MinTemperatureResult run_min_temperature(
    const CoolingSystem& system, const OftecOptions& options = {});

}  // namespace oftec::core
