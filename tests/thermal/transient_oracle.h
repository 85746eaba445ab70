// Transient oracle: the direct specification of thermal::TransientEngine.
//
// Every step linearizes the leakage on its exact tangent at the current chip
// temperatures, assembles the full banded system with ThermalModel::assemble,
// adds C/dt to its diagonal and C/dt·Tₙ to its right-hand side, and factors
// it afresh through la::BandedFactor — no CG, no sparse pattern, no
// preallocated workspaces. The engine solves the same step systems by CG to
// a relative tolerance, so it agrees with the oracle within
// kEngineAgreementK, not bit for bit (tests/thermal/test_transient_engine.cpp
// and the transient benches check that bound).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/banded_factor.h"
#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/transient.h"

namespace oftec::thermal::testing {

/// How far [K] the engine may stray from the oracle on any recorded max chip
/// temperature and any final node temperature. The CG stop rule leaves
/// ≈ 1e-7 K per run on the dtm_lut pool and ≈ 1e-6 K on runs from ambient.
inline constexpr double kEngineAgreementK = 1e-5;

/// Max |a − b| [K] over the recorded max chip temperatures and the final
/// node temperatures of two runs; infinite when their verdicts, step counts
/// or sample counts differ.
[[nodiscard]] inline double max_deviation_k(const TransientResult& a,
                                            const TransientResult& b) {
  if (a.runaway != b.runaway || a.steps != b.steps ||
      a.samples.size() != b.samples.size() ||
      a.final_temperatures.size() != b.final_temperatures.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    worst = std::max(worst, std::abs(a.samples[i].max_chip_temperature -
                                     b.samples[i].max_chip_temperature));
  }
  for (std::size_t i = 0; i < a.final_temperatures.size(); ++i) {
    worst = std::max(worst, std::abs(a.final_temperatures[i] -
                                     b.final_temperatures[i]));
  }
  return worst;
}

class TransientOracle {
 public:
  TransientOracle(const ThermalModel& model, la::Vector cell_dynamic_power,
                  std::vector<power::ExponentialTerm> cell_leakage,
                  TransientOptions options = {})
      : model_(&model),
        dynamic_(std::move(cell_dynamic_power)),
        leakage_(std::move(cell_leakage)),
        options_(options) {
    const std::size_t cells = model.layout().cells_per_layer();
    if (dynamic_.size() != cells || leakage_.size() != cells) {
      throw std::invalid_argument("TransientOracle: per-cell arity mismatch");
    }
    // duration == 0 is a valid no-op horizon: zero steps, state unchanged.
    if (options_.time_step <= 0.0 || options_.duration < 0.0) {
      throw std::invalid_argument("TransientOracle: bad time parameters");
    }
    if (options_.record_stride == 0) {
      throw std::invalid_argument(
          "TransientOracle: record_stride must be >= 1");
    }
  }

  /// All-nodes-at-ambient initial condition.
  [[nodiscard]] la::Vector ambient_state() const {
    return la::Vector(model_->layout().node_count(), model_->config().ambient);
  }

  /// Integrate from `initial_temperatures` (all nodes) under the schedule.
  [[nodiscard]] TransientResult run(
      const ControlSchedule& control,
      const la::Vector& initial_temperatures) const {
    return run_closed_loop(
        [&control](double time, double) { return control(time); },
        initial_temperatures);
  }

  /// Closed-loop variant: the controller is consulted every step with the
  /// current max chip temperature.
  [[nodiscard]] TransientResult run_closed_loop(
      const FeedbackControl& control,
      const la::Vector& initial_temperatures) const {
    const std::size_t n = model_->layout().node_count();
    const std::size_t cells = model_->layout().cells_per_layer();
    if (initial_temperatures.size() != n) {
      throw std::invalid_argument("TransientOracle::run: state arity mismatch");
    }

    const la::Vector& cap = model_->capacitances();
    const double dt = options_.time_step;
    const StepPlan plan = plan_steps(options_.duration, dt);
    const std::size_t steps = plan.steps;

    TransientResult result;
    la::Vector temps = initial_temperatures;
    std::vector<power::TaylorCoefficients> taylor(cells);

    auto record = [&](double time, double omega, double current) {
      TransientSample s;
      s.time = time;
      s.max_chip_temperature =
          model_->max_slab_temperature(temps, Slab::kChip);
      s.tec_power = model_->tec_power(temps, current);
      s.fan_power = model_->config().fan.power(omega);
      s.leakage_power = model_->leakage_power(temps, leakage_);
      result.samples.push_back(s);
    };

    {
      const ControlSetting initial = control(
          0.0, model_->max_slab_temperature(temps, Slab::kChip));
      record(0.0, initial.omega, initial.current);
    }

    for (std::size_t step = 0; step < steps; ++step) {
      const double time = static_cast<double>(step) * dt;
      const double step_dt = step + 1 == steps ? plan.last_step : dt;
      // The leakage tangent at the current chip temperatures.
      const la::Vector chip = model_->slab_temperatures(temps, Slab::kChip);
      const ControlSetting setting =
          control(time, la::max_element_value(chip));
      for (std::size_t i = 0; i < cells; ++i) {
        taylor[i] = power::tangent_linearize(leakage_[i], chip[i]);
      }

      AssembledSystem sys =
          model_->assemble(setting.omega, setting.current, dynamic_, taylor);
      // Backward Euler: (C/dt + M)·T_next = C/dt·T_now + rhs.
      for (std::size_t i = 0; i < n; ++i) {
        const double c_dt = cap[i] / step_dt;
        sys.matrix.add(i, i, c_dt);
        sys.rhs[i] += c_dt * temps[i];
      }

      try {
        // The step matrix is symmetric (conduction plus diagonal stamps)
        // and, with C/dt on its diagonal, positive definite away from
        // runaway: Cholesky, with the pivoted LU as fallback
        // (la::BandedFactor).
        temps = la::BandedFactor(sys.matrix).solve(sys.rhs);
      } catch (const std::runtime_error&) {
        result.runaway = true;
        result.steps = step;
        return result;
      }
      for (const double t : temps) {
        if (!std::isfinite(t) || t <= 0.0 ||
            t > options_.runaway_temperature) {
          result.runaway = true;
          result.steps = step;
          return result;
        }
      }

      if ((step + 1) % options_.record_stride == 0 || step + 1 == steps) {
        // The final sample carries the true horizon endpoint (the last step
        // may be clamped shorter than dt).
        record(step + 1 == steps ? options_.duration : time + dt,
               setting.omega, setting.current);
      }
    }

    result.final_temperatures = std::move(temps);
    result.steps = steps;
    return result;
  }

 private:
  const ThermalModel* model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leakage_;
  TransientOptions options_;
};

}  // namespace oftec::thermal::testing
