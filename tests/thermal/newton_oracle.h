// Newton oracle for the steady thermal solve: the seed solver's loop, kept
// as a test reference for thermal::SolveEngine.
//
// Exact exponential leakage, tangent re-linearized at the chip temperatures
// of the previous iterate (first guess: ambient + 10 K), until the chip
// temperatures move less than SteadyOptions::tolerance. Each linear step is
// ThermalModel::assemble solved by pivoted la::BandedLu alone — no Krylov
// solve, no Cholesky, no factor cache, no runaway certificate — so the
// oracle shares only the model with the engine it checks. A singular or
// unphysical step is runaway, as is an unconverged loop that ends within
// 50 K of the runaway temperature.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "la/banded_lu.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/steady.h"

namespace oftec::thermal::testing {

inline SteadyResult newton_oracle(const SteadySolver& bound, double omega,
                                  double current) {
  const ThermalModel& model = bound.model();
  const SteadyOptions& opts = bound.options();
  const std::size_t cells = model.layout().cells_per_layer();
  const la::Vector cell_current(cells, current);
  const auto physical = [&](const la::Vector& temperatures) {
    for (const double t : temperatures) {
      if (!std::isfinite(t) || t <= 0.0 || t > opts.runaway_temperature) {
        return false;
      }
    }
    return true;
  };

  std::vector<power::TaylorCoefficients> taylor(cells);
  la::Vector t_ref(cells, model.config().ambient + 10.0);
  la::Vector temps;
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    for (std::size_t i = 0; i < cells; ++i) {
      taylor[i] = power::tangent_linearize(bound.cell_leakage()[i], t_ref[i]);
    }
    const AssembledSystem sys = model.assemble(
        omega, cell_current, bound.cell_dynamic_power(), taylor);
    try {
      temps = la::BandedLu(sys.matrix).solve(sys.rhs);
    } catch (const std::runtime_error&) {
      return make_runaway_result(it);  // singular
    }
    if (!physical(temps)) return make_runaway_result(it);
    const la::Vector chip = model.slab_temperatures(temps, Slab::kChip);
    const double diff = la::max_abs_diff(chip, t_ref);
    t_ref = chip;
    if (diff < opts.tolerance) {
      return make_steady_result(model, std::move(temps), true, it,
                                cell_current, bound.cell_leakage());
    }
  }
  if (model.max_slab_temperature(temps, Slab::kChip) >
      opts.runaway_temperature - 50.0) {
    return make_runaway_result(opts.max_iterations);
  }
  return make_steady_result(model, std::move(temps), false,
                            opts.max_iterations, cell_current,
                            bound.cell_leakage());
}

}  // namespace oftec::thermal::testing
