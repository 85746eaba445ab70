// Steady-state thermal solve for one (ω, I_TEC) operating point.
//
// With the Taylor-linearized leakage and the Peltier terms on the LHS, the
// system is linear for a fixed linearization point; the exact exponential
// leakage is recovered by an outer Newton loop that re-linearizes at the
// current chip temperatures (the "iterative method" of Sec. 4, accelerated
// by the linear term exactly as reference [13] prescribes). That loop runs
// in thermal::SolveEngine (thermal/solve_engine.h); SteadySolver binds the
// model to one workload and its options.
//
// Thermal runaway — the paper's "𝒯 → ∞" dark-red region of Fig. 6(a,b) —
// appears as the outer loop diverging (or the modified matrix going
// singular): the leakage slope exceeds what the cooling path can sink. The
// result then reports runaway=true and max_chip_temperature = +inf.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "util/status.h"

namespace oftec::thermal {

/// How chip leakage enters the solve.
enum class LeakageMode {
  /// Paper default: chord linearization over [300 K, 390 K] (10-sample
  /// regression, Sec. 6.1). The chord line does not depend on the operating
  /// point, so one linear solve is exact for this model.
  kChordLinear,
  /// Outer Newton loop with tangent re-linearization — converges to the true
  /// exponential-leakage solution. Library default.
  kNewtonExact,
  /// Leakage frozen at its ambient-temperature value (ablation only).
  kConstant,
};

struct SteadyOptions {
  LeakageMode mode = LeakageMode::kNewtonExact;
  double tolerance = 1e-3;            ///< outer-loop ΔT convergence [K]
  std::size_t max_iterations = 50;
  /// Temperatures beyond this are declared runaway [K].
  double runaway_temperature = 500.0;
  /// Relative residual of the reported linear solve (SolveEngine's polish).
  double iterative_tolerance = 1e-9;
};

struct SteadyResult {
  la::Vector temperatures;  ///< all nodes [K]; empty on runaway
  bool converged = false;
  bool runaway = false;
  /// Structured outcome. kOk ⇔ converged && !runaway; the runaway/converged
  /// flags are kept for existing callers, but layered fallback logic should
  /// branch on this (it distinguishes "physically infeasible" from "the
  /// numerics failed" — only the former is a definitive answer).
  SolveStatus status = SolveStatus::kNotConverged;
  std::size_t iterations = 0;
  double max_chip_temperature = std::numeric_limits<double>::infinity();
  la::Vector chip_temperatures;       ///< per chip cell [K]
  la::Vector cold_side_temperatures;  ///< TEC absorb interface [K]
  la::Vector hot_side_temperatures;   ///< TEC reject interface [K]
  double leakage_power = std::numeric_limits<double>::infinity();  ///< exact [W]
  double tec_power = std::numeric_limits<double>::infinity();      ///< Eq. 3 [W]
};

/// Populate a SteadyResult from a converged node-temperature vector: slab
/// extraction, exact leakage, and TEC electrical power.
[[nodiscard]] SteadyResult make_steady_result(
    const ThermalModel& model, la::Vector temperatures, bool converged,
    std::size_t iterations, const la::Vector& cell_current,
    const std::vector<power::ExponentialTerm>& cell_leakage);

/// The runaway outcome (𝒯 → ∞) as a SteadyResult. `status` refines the
/// cause (kSingular for a dead linear system, kNumericalError for NaN/Inf
/// contamination); the default is the plain physical-runaway verdict.
[[nodiscard]] SteadyResult make_runaway_result(
    std::size_t iterations, SolveStatus status = SolveStatus::kRunaway);

/// Binds a thermal model to one workload (dynamic power + leakage terms) and
/// its options — the "thermal simulator" box of the paper's Fig. 5
/// evaluation flow. A thermal::SolveEngine over the binding evaluates it;
/// callers that solve repeatedly keep one engine (core::CoolingSystem does).
class SteadySolver {
 public:
  SteadySolver(const ThermalModel& model, la::Vector cell_dynamic_power,
               std::vector<power::ExponentialTerm> cell_leakage,
               SteadyOptions options = {});

  [[nodiscard]] const ThermalModel& model() const noexcept { return *model_; }
  [[nodiscard]] const SteadyOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const la::Vector& cell_dynamic_power() const noexcept {
    return dynamic_;
  }
  [[nodiscard]] const std::vector<power::ExponentialTerm>& cell_leakage()
      const noexcept {
    return leakage_;
  }

  /// Solve at (ω [rad/s], I [A]) through a default-options SolveEngine
  /// built for this one call: bit-identical to
  /// SolveEngine(*this).solve({ω, I}).
  [[nodiscard]] SteadyResult solve(double omega, double current) const;

 private:
  const ThermalModel* model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leakage_;
  SteadyOptions options_;
};

}  // namespace oftec::thermal
