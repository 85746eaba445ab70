// Transient oracle: the executable specification of thermal::TransientEngine.
//
// Every step linearizes the leakage at the current chip temperatures (exact
// b = p(Tₙ) and t_ref = Tₙ, slopes held under
// TransientOptions::relinearization_threshold), assembles the full banded
// system with ThermalModel::assemble, adds C/dt to its diagonal and
// C/dt·Tₙ to its right-hand side, and factors it afresh through
// la::BandedFactor — no factor cache, no stamped lower band, no
// preallocated workspaces. The engine must reproduce its results bit for
// bit (tests/thermal/test_transient_engine.cpp); the transient benches time
// the engine against it.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/banded_factor.h"
#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/transient.h"

namespace oftec::thermal::testing {

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
    if (!(options_.relinearization_threshold >= 0.0)) {
      throw std::invalid_argument(
          "TransientOracle: relinearization_threshold must be >= 0");
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
    la::Vector exact_slope(cells);
    bool holding = false;  // taylor[i].a holds slopes from an earlier step

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
      // Exact leakage at the current chip temperatures (b = p(Tₙ),
      // t_ref = Tₙ) with the held slope; the slopes refresh, all at once,
      // when some cell's exact slope has left the relative tolerance around
      // its held value (with tolerance 0, whenever one moves).
      const la::Vector chip = model_->slab_temperatures(temps, Slab::kChip);
      const ControlSetting setting =
          control(time, la::max_element_value(chip));
      bool refresh = !holding;
      for (std::size_t i = 0; i < cells; ++i) {
        const power::TaylorCoefficients exact =
            power::tangent_linearize(leakage_[i], chip[i]);
        refresh |= std::abs(exact.a - taylor[i].a) >
                   options_.relinearization_threshold * taylor[i].a;
        exact_slope[i] = exact.a;
        taylor[i].b = exact.b;
        taylor[i].t_ref = exact.t_ref;
      }
      if (refresh) {
        for (std::size_t i = 0; i < cells; ++i) taylor[i].a = exact_slope[i];
      }
      holding = true;

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
        if (!std::isfinite(t) || t > options_.runaway_temperature) {
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
