#include "core/dtm_loop.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "la/vector_ops.h"
#include "opt/grid_search.h"
#include "thermal/model.h"
#include "thermal/steady.h"
#include "thermal/transient.h"
#include "thermal/transient_engine.h"
#include "util/obs.h"
#include "util/stopwatch.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_runs = obs::counter("dtm.runs");
const obs::Counter g_obs_periods = obs::counter("dtm.periods");
const obs::Counter g_obs_reoptimizations = obs::counter("dtm.reoptimizations");
// Per-control-period latency breakdown: total decision time, then its parts
// (workload windowing vs. the optimize/lookup that produces the setting).
const obs::Histogram g_obs_decide_ms =
    obs::histogram("dtm.decide_ms", obs::exponential_bounds(0.1, 2.0, 14));
const obs::Histogram g_obs_window_ms =
    obs::histogram("dtm.window_ms", obs::exponential_bounds(0.01, 2.0, 12));
const obs::Histogram g_obs_optimize_ms =
    obs::histogram("dtm.optimize_ms", obs::exponential_bounds(0.1, 2.0, 14));
const obs::Histogram g_obs_lookup_ms =
    obs::histogram("dtm.lookup_ms", obs::exponential_bounds(0.001, 2.0, 12));
const obs::Counter g_obs_fallbacks = obs::counter("dtm.fallback_decisions");
const obs::Counter g_obs_watchdog_trips = obs::counter("dtm.watchdog_trips");
// Cost of the transient steps: CG iterations, and the steps that took the
// banded fallback.
const obs::Counter g_obs_step_cg_iterations =
    obs::counter("dtm.step_cg_iterations");
const obs::Counter g_obs_step_factorizations =
    obs::counter("dtm.step_factorizations");
const obs::Counter g_obs_step_lu_fallbacks =
    obs::counter("dtm.step_lu_fallbacks");

/// Watchdog: consecutive steps above T_max with non-decreasing temperature
/// before the fail-safe tier is forced (bounds time-to-fail-safe by
/// patience · time_step).
constexpr std::size_t kWatchdogPatience = 3;
/// The watchdog releases fail-safe once max_chip < T_max − margin [K].
constexpr double kWatchdogReleaseMargin = 2.0;
/// Dynamic-power scale applied while fail-safe is active (models the DVFS
/// throttle that accompanies max cooling).
constexpr double kFailsafeThrottle = 0.5;

/// Whole intervals of length `interval` in `span` (both > 0, span may be 0):
/// floor(span / interval), except that a quotient within 1e-9 of an integer
/// counts as that integer — plan_steps' rounding-noise tolerance. In
/// floating point 0.3 / 0.1 is 2.9999999999999996 and 0.29 / 0.01 is
/// 28.999999999999996; both are whole counts (3 and 29).
std::size_t whole_intervals(double span, double interval) {
  const double q = span / interval;
  const double nearest = std::round(q);
  return static_cast<std::size_t>(std::abs(q - nearest) <= 1e-9
                                      ? nearest
                                      : std::floor(q));
}

/// Per-unit max over trace samples [begin, end).
power::PowerMap window_max(const workload::PowerTrace& trace,
                           const floorplan::Floorplan& fp, std::size_t begin,
                           std::size_t end) {
  power::PowerMap out(fp);
  for (std::size_t s = begin; s < end && s < trace.size(); ++s) {
    out.max_with(trace.samples[s]);
  }
  return out;
}

struct Setting {
  double omega = 0.0;
  double current = 0.0;
};

/// A control setting together with the degradation rung that produced it.
struct Decision {
  Setting setting;
  ControllerTier tier = ControllerTier::kFailSafe;
};

}  // namespace

DtmResult run_dtm_loop(const floorplan::Floorplan& fp,
                       const workload::PowerTrace& trace,
                       const power::LeakageModel& leakage,
                       const DtmOptions& options) {
  if (trace.samples.empty()) {
    throw std::invalid_argument("run_dtm_loop: empty trace");
  }
  if (options.policy == DtmPolicy::kLut && options.lut == nullptr) {
    throw std::invalid_argument("run_dtm_loop: LUT policy needs a table");
  }
  if (options.control_period <= 0.0 || options.time_step <= 0.0) {
    throw std::invalid_argument("run_dtm_loop: bad timing parameters");
  }
  if (options.fallback_grid_points < 2) {
    throw std::invalid_argument(
        "run_dtm_loop: fallback_grid_points must be >= 2");
  }
  OBS_SPAN("dtm.run");
  g_obs_runs.add();

  const thermal::ThermalModel model(options.system.package, fp,
                                    options.system.grid_nx,
                                    options.system.grid_ny);
  const auto leak_terms = model.cell_leakage(leakage);
  const double t_max = model.config().t_max;
  const double dt = options.time_step;

  // The transient path: one CG-solved backward-Euler step per time step,
  // on the exact leakage tangent and the step's trace power (see
  // thermal/transient_engine.h). The chip-only runaway verdict is this
  // loop's historical semantics (the TEC reject side may legitimately exceed
  // the all-node limit under max current).
  thermal::TransientStepper::Config stepper_cfg;
  stepper_cfg.runaway_temperature = 500.0;
  stepper_cfg.runaway_check = thermal::RunawayCheck::kChipOnly;
  thermal::TransientStepper stepper(model, leak_terms, stepper_cfg);
  // Counts flow to obs on every exit path (runaway returns included).
  struct StepperObsFlush {
    const thermal::TransientStepper& s;
    ~StepperObsFlush() {
      g_obs_step_cg_iterations.add(s.cg_iterations());
      g_obs_step_factorizations.add(s.factorizations());
      g_obs_step_lu_fallbacks.add(s.lu_fallbacks());
    }
  } stepper_obs_flush{stepper};

  // Per-sample cell power, computed lazily.
  std::vector<la::Vector> cell_power(trace.size());
  auto power_at = [&](std::size_t sample) -> const la::Vector& {
    sample = std::min(sample, trace.size() - 1);
    if (cell_power[sample].empty()) {
      cell_power[sample] = model.distribute(trace.samples[sample]);
    }
    return cell_power[sample];
  };

  // Steps map to trace samples, and samples to control periods, through
  // whole_intervals, so inexact quotients never shift a boundary.
  const std::size_t samples_per_period = std::max<std::size_t>(
      1, whole_intervals(options.control_period, trace.sample_interval));
  const auto sample_of = [&](std::size_t step) {
    return whole_intervals(static_cast<double>(step) * dt,
                           trace.sample_interval);
  };

  DtmResult result;

  const Setting failsafe_setting{model.config().fan.max_speed, 0.0};

  // Control decision for the window starting at trace sample `begin`,
  // descending the degradation chain until a tier produces a setting. No
  // exception escapes: a tier that throws (bad inputs, injected allocation
  // failure, solver blow-up) simply yields to the next rung, and the
  // fail-safe rung always succeeds.
  auto decide = [&](std::size_t begin) -> Decision {
    OBS_SPAN("dtm.decide");
    g_obs_periods.add();
    const util::Stopwatch decide_watch;
    const power::PowerMap window =
        options.policy == DtmPolicy::kStatic
            ? window_max(trace, fp, 0, trace.size())
            : window_max(trace, fp, begin, begin + samples_per_period);
    if (obs::enabled()) g_obs_window_ms.observe(decide_watch.elapsed_ms());
    const util::Stopwatch watch;

    Decision decision{failsafe_setting, ControllerTier::kFailSafe};
    bool decided = false;

    // Lazily built, shared by the OFTEC-based tiers. Construction itself can
    // fail (that counts against the tier, not the loop).
    std::optional<CoolingSystem> system;
    const auto ensure_system = [&]() -> CoolingSystem* {
      if (!system) {
        try {
          system.emplace(fp, window, leakage, options.system);
        } catch (const std::exception&) {
          return nullptr;
        }
      }
      return &*system;
    };

    const auto try_oftec = [&](const OftecOptions& oopts,
                               ControllerTier tier) {
      CoolingSystem* sys = ensure_system();
      if (sys == nullptr) return;
      try {
        const OftecResult r = run_oftec(*sys, oopts);
        if (r.success) {
          decision = {{r.omega, r.current}, tier};
          decided = true;
        } else if (r.status == SolveStatus::kRunaway &&
                   std::isfinite(r.opt2_temperature)) {
          // Definitive verdict: no feasible operating point exists. The
          // temperature-minimizing setting is the best possible answer —
          // take it and let the violation accounting tell the truth.
          decision = {{r.opt2_omega, r.opt2_current}, tier};
          decided = true;
        }
        // Non-definitive failure (kNotConverged etc.): fall through.
      } catch (const std::exception&) {
        // Tier failed outright; fall through.
      }
    };

    const auto try_lut = [&](ControllerTier tier) {
      if (options.lut == nullptr) return;
      try {
        const LutController::LookupResult hit = options.lut->lookup(window);
        if (hit.feasible) {
          decision = {{hit.omega, hit.current}, tier};
          decided = true;
        }
      } catch (const std::exception&) {
      }
    };

    // Tier 1: the configured policy.
    switch (options.policy) {
      case DtmPolicy::kLut:
        try_lut(ControllerTier::kPrimary);
        if (obs::enabled()) g_obs_lookup_ms.observe(watch.elapsed_ms());
        break;
      case DtmPolicy::kExactOftec:
      case DtmPolicy::kStatic:
        try_oftec(options.oftec, ControllerTier::kPrimary);
        if (obs::enabled()) g_obs_optimize_ms.observe(watch.elapsed_ms());
        break;
    }
    // Tier 2: the LUT, when one is available and was not already tier 1.
    if (!decided && options.policy != DtmPolicy::kLut) {
      try_lut(ControllerTier::kLut);
    }
    // Tier 3: coarse exhaustive grid search — derivative-free, immune to the
    // line-search/QP failure modes of the gradient-based solvers.
    if (!decided) {
      OftecOptions grid = options.oftec;
      grid.solver = [points = options.fallback_grid_points](
                        const opt::Problem& problem, const la::Vector&,
                        const opt::StopPredicate&) {
        return opt::solve_grid_search(problem, points);
      };
      try_oftec(grid, ControllerTier::kGridSearch);
    }
    // Tier 4 is the pre-loaded fail-safe decision.

    if (decision.tier != ControllerTier::kPrimary) {
      ++result.fallback_decisions;
      g_obs_fallbacks.add();
    }
    result.control_time_ms += watch.elapsed_ms();
    ++result.reoptimizations;
    g_obs_reoptimizations.add();
    if (obs::enabled()) g_obs_decide_ms.observe(decide_watch.elapsed_ms());
    return decision;
  };

  // Initial state: steady at the first decision; when that operating point
  // has no stable state (or the solve fails), bring the system up fail-safe
  // with the workload throttled rather than refusing to run.
  Decision decision = decide(0);
  Setting setting = decision.setting;
  ControllerTier tier = decision.tier;
  bool failsafe_active = tier == ControllerTier::kFailSafe;

  thermal::SteadyResult initial =
      thermal::SteadySolver(model, power_at(0), leak_terms,
                            options.system.steady)
          .solve(setting.omega, setting.current);
  if (initial.status != SolveStatus::kOk) {
    failsafe_active = true;
    tier = ControllerTier::kFailSafe;
    setting = failsafe_setting;
    ++result.watchdog_trips;
    g_obs_watchdog_trips.add();
    la::Vector throttled = power_at(0);
    la::scale(kFailsafeThrottle, throttled);
    initial = thermal::SteadySolver(model, throttled, leak_terms,
                                    options.system.steady)
                  .solve(setting.omega, setting.current);
    if (initial.status != SolveStatus::kOk) {
      result.runaway = true;
      result.status = ControlStatus::kRunaway;
      return result;
    }
  }
  stepper.reset(initial.temperatures);

  // A trace of 3 × 0.1-s samples lasts 0.30000000000000004 s; plan_steps
  // absorbs that noise instead of running a step past the end, and clamps
  // the last step of a trace that is not a whole number of steps so the
  // replay ends on the trace end.
  const thermal::StepPlan plan = thermal::plan_steps(trace.duration(), dt);
  const std::size_t total_steps = plan.steps;
  const std::size_t record_stride =
      std::max<std::size_t>(1, total_steps / 400);

  double power_acc = 0.0;
  std::size_t power_count = 0;

  // Watchdog state: consecutive steps that are both above T_max and not
  // cooling down. Bounded reaction time: kWatchdogPatience · dt after the
  // first hot step, the fail-safe tier is in charge.
  std::size_t hot_streak = 0;
  double prev_max_chip = model.config().ambient;

  la::Vector throttled_power;  // scratch for the fail-safe power scaling

  for (std::size_t step = 0; step < total_steps; ++step) {
    const double time = static_cast<double>(step) * dt;
    const double step_dt = step + 1 == total_steps ? plan.last_step : dt;
    const std::size_t sample = sample_of(step);

    // One backward-Euler step under setting `s` with cell power `p`. False —
    // leaving the state unchanged, so a fail-safe retry re-integrates from
    // the same temperatures — when the step matrix is singular or the
    // stepped state fails the chip-only runaway verdict (no exception
    // escapes).
    const auto integrate = [&](const Setting& s, const la::Vector& p) {
      return stepper.step({s.omega, s.current}, p, step_dt);
    };

    // Re-optimize when the step enters a new control period (the first
    // decision was made before the loop). A fresh decision also releases
    // fail-safe — if the new setting overheats, the watchdog re-trips within
    // bounds.
    if (step > 0 && options.policy != DtmPolicy::kStatic &&
        sample / samples_per_period !=
            sample_of(step - 1) / samples_per_period) {
      decision = decide(sample);
      setting = decision.setting;
      tier = decision.tier;
      failsafe_active = tier == ControllerTier::kFailSafe;
      hot_streak = 0;
    }

    OBS_SPAN("dtm.transient_step");
    const la::Vector* step_power = &power_at(sample);
    if (failsafe_active) {
      throttled_power = *step_power;
      la::scale(kFailsafeThrottle, throttled_power);
      step_power = &throttled_power;
    }

    if (!integrate(setting, *step_power)) {
      if (failsafe_active) {
        // Diverged even under max cooling and a throttled workload.
        result.runaway = true;
        result.status = ControlStatus::kRunaway;
        return result;
      }
      // Retry the step once under fail-safe before giving up: a singular or
      // exploding step at an aggressive setting is often integrable at max
      // fan with the workload throttled.
      failsafe_active = true;
      tier = ControllerTier::kFailSafe;
      setting = failsafe_setting;
      ++result.watchdog_trips;
      g_obs_watchdog_trips.add();
      hot_streak = 0;
      throttled_power = power_at(sample);
      la::scale(kFailsafeThrottle, throttled_power);
      if (!integrate(setting, throttled_power)) {
        result.runaway = true;
        result.status = ControlStatus::kRunaway;
        return result;
      }
    }

    const double max_chip = stepper.max_chip_temperature();
    result.peak_temperature = std::max(result.peak_temperature, max_chip);
    if (max_chip > t_max) result.violation_time += step_dt;
    if (failsafe_active) result.failsafe_time += step_dt;

    // Watchdog: trip to fail-safe after kWatchdogPatience consecutive hot,
    // non-cooling steps; release once safely below T_max.
    if (max_chip > t_max && max_chip >= prev_max_chip) {
      ++hot_streak;
    } else {
      hot_streak = 0;
    }
    prev_max_chip = max_chip;
    if (!failsafe_active && hot_streak >= kWatchdogPatience) {
      failsafe_active = true;
      tier = ControllerTier::kFailSafe;
      setting = failsafe_setting;
      ++result.watchdog_trips;
      g_obs_watchdog_trips.add();
      hot_streak = 0;
    } else if (failsafe_active &&
               max_chip < t_max - kWatchdogReleaseMargin &&
               decision.tier != ControllerTier::kFailSafe) {
      // Cool again: hand control back to the last real decision. If it
      // overheats once more the watchdog re-trips, so oscillation stays
      // bounded and every trip is counted.
      failsafe_active = false;
      setting = decision.setting;
      tier = decision.tier;
    }

    const double cooling = stepper.leakage_power() +
                           stepper.tec_power(setting.current) +
                           model.config().fan.power(setting.omega);
    power_acc += cooling;
    ++power_count;

    if (step % record_stride == 0 || step + 1 == total_steps) {
      result.samples.push_back({time + step_dt, max_chip, setting.omega,
                                setting.current, cooling, tier});
    }
  }

  result.average_cooling_power =
      power_count > 0 ? power_acc / static_cast<double>(power_count) : 0.0;
  // Honest verdict: fail-safe involvement dominates, then any degradation —
  // a run with violation time or fallback decisions is never kOk.
  if (result.watchdog_trips > 0 || result.failsafe_time > 0.0) {
    result.status = ControlStatus::kFailSafe;
  } else if (result.fallback_decisions > 0 || result.violation_time > 0.0) {
    result.status = ControlStatus::kDegraded;
  } else {
    result.status = ControlStatus::kOk;
  }
  return result;
}

}  // namespace oftec::core
