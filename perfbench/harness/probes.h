// Layer probes: time one public call of the `la` or `thermal` layer on the
// exact system a workload op produces. The library exposes no timers inside
// SolveEngine or TransientStepper, so per-layer times come from calling the
// layer directly with the op's own inputs; the work counts the ops really
// did come from the library's public counters instead.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cooling_system.h"
#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"

namespace perfbench {

/// Tangent linearization of every cell's leakage at its chip temperature.
[[nodiscard]] std::vector<oftec::power::TaylorCoefficients> linearize_at(
    const std::vector<oftec::power::ExponentialTerm>& leakage,
    const oftec::la::Vector& chip_temperatures);

struct CgProbe {
  double ms = 0.0;
  std::size_t iterations = 0;
};

/// One cold-started la::solve_cg on the steady system SolveEngine assembles
/// at (ω, I), linearized at `chip_temperatures`, to the steady solver's
/// polish tolerance.
[[nodiscard]] CgProbe probe_cg(const oftec::core::CoolingSystem& system,
                               double omega, double current,
                               const oftec::la::Vector& chip_temperatures);

struct FactorProbe {
  double ms = 0.0;
  double mflop = 0.0;  ///< computed from n and the bandwidths
};

/// la::BandedLu of the backward-Euler step matrix M(ω, I) + C/dt — the
/// factorization TransientStepper performs on every relinearized step.
[[nodiscard]] FactorProbe probe_step_lu(
    const oftec::thermal::ThermalModel& model,
    const oftec::la::Vector& cell_power,
    const std::vector<oftec::power::ExponentialTerm>& leakage, double omega,
    double current, const oftec::la::Vector& chip_temperatures, double dt);

/// Numeric banded Cholesky of the steady matrix M(ω, I) — the factorization
/// behind SolveEngine's direct path and its factor cache.
[[nodiscard]] FactorProbe probe_steady_cholesky(
    const oftec::core::CoolingSystem& system, double omega, double current,
    const oftec::la::Vector& chip_temperatures);

}  // namespace perfbench
