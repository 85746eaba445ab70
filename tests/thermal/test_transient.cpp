#include "thermal/transient_engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/steady.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const ThermalModel& model() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              6, 6);
  return m;
}

struct Workload {
  la::Vector dynamic;
  std::vector<power::ExponentialTerm> leak;
};

Workload make_workload(double watts, bool core_heavy = false) {
  power::PowerMap dyn(fp());
  const double uniform_share = core_heavy ? 0.5 : 1.0;
  for (std::size_t b = 0; b < fp().block_count(); ++b) {
    dyn.set(b, uniform_share * watts * fp().blocks()[b].area() /
                   fp().die_area());
  }
  if (core_heavy) {
    // Hot spots under the TEC-covered belt, so current steps visibly cool.
    dyn.add("IntExec", 0.3 * watts);
    dyn.add("IntReg", 0.2 * watts);
  }
  const auto leak_model =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return {model().distribute(dyn), model().cell_leakage(leak_model)};
}

ControlSchedule constant_control(double omega, double current) {
  return [omega, current](double) { return ControlSetting{omega, current}; };
}

TEST(Transient, ValidatesOptions) {
  const Workload w = make_workload(20.0);
  TransientOptions bad;
  bad.time_step = 0.0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);
  bad = TransientOptions{};
  bad.record_stride = 0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);
}

TEST(Transient, WarmUpApproachesSteadyState) {
  const Workload w = make_workload(25.0);
  TransientOptions opts;
  opts.time_step = 20e-3;
  opts.duration = 60.0;  // several sink time constants
  opts.record_stride = 100;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(450.0, 0.5), transient.ambient_state());
  ASSERT_FALSE(r.runaway);

  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(450.0, 0.5);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(r.samples.back().max_chip_temperature, s.max_chip_temperature,
              0.5);
}

TEST(Transient, TemperatureRisesMonotonicallyFromAmbient) {
  const Workload w = make_workload(25.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 2.0;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(450.0, 0.0), transient.ambient_state());
  ASSERT_FALSE(r.runaway);
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_GE(r.samples[i].max_chip_temperature,
              r.samples[i - 1].max_chip_temperature - 1e-9);
  }
}

TEST(Transient, SteadyInitialStateStaysPut) {
  const Workload w = make_workload(22.0);
  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(400.0, 1.0);
  ASSERT_TRUE(s.converged);

  TransientOptions opts;
  opts.time_step = 5e-3;
  opts.duration = 0.5;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(400.0, 1.0), s.temperatures);
  ASSERT_FALSE(r.runaway);
  for (const TransientSample& sample : r.samples) {
    EXPECT_NEAR(sample.max_chip_temperature, s.max_chip_temperature, 0.05);
  }
}

TEST(Transient, CurrentStepCoolsFastThenJouleCatchesUp) {
  // The key physics behind the paper's transient-boost extension: Peltier
  // cooling is instantaneous, Joule heat arrives with the package RC delay.
  const Workload w = make_workload(26.0, /*core_heavy=*/true);
  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(450.0, 0.5);
  ASSERT_TRUE(s.converged);

  TransientOptions opts;
  opts.time_step = 2e-3;
  opts.duration = 8.0;
  opts.record_stride = 5;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(450.0, 2.0), s.temperatures);
  ASSERT_FALSE(r.runaway);

  // Minimum temperature happens early (sub-second), after which Joule heat
  // pulls the chip back up.
  double min_temp = 1e9, min_time = 0.0;
  for (const TransientSample& sample : r.samples) {
    if (sample.max_chip_temperature < min_temp) {
      min_temp = sample.max_chip_temperature;
      min_time = sample.time;
    }
  }
  EXPECT_LT(min_temp, s.max_chip_temperature - 0.3);
  EXPECT_LT(min_time, 2.0);
  EXPECT_GT(r.samples.back().max_chip_temperature, min_temp + 0.1);
}

TEST(Transient, NoFanRunsAway) {
  const Workload w = make_workload(35.0);
  TransientOptions opts;
  opts.time_step = 50e-3;
  opts.duration = 600.0;
  opts.record_stride = 200;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(0.0, 0.0), transient.ambient_state());
  EXPECT_TRUE(r.runaway);
}

TEST(Transient, RecordStrideControlsSampleCount) {
  const Workload w = make_workload(20.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.1;
  opts.record_stride = 5;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(300.0, 0.0), transient.ambient_state());
  ASSERT_FALSE(r.runaway);
  // initial sample + floor(10/5) recorded steps.
  EXPECT_EQ(r.samples.size(), 3u);
  EXPECT_EQ(r.steps, 10u);
}

TEST(Transient, SamplesCarryPowerBreakdown) {
  const Workload w = make_workload(20.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.05;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(300.0, 1.0), transient.ambient_state());
  ASSERT_FALSE(r.runaway);
  for (const TransientSample& s : r.samples) {
    EXPECT_GT(s.leakage_power, 0.0);
    EXPECT_GT(s.fan_power, 0.0);
    EXPECT_GE(s.tec_power, 0.0);
  }
}

TEST(Transient, ZeroLengthHorizonIsANoOp) {
  const Workload w = make_workload(20.0);
  TransientOptions opts;
  opts.duration = 0.0;
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const la::Vector start(model().layout().node_count(), 330.0);
  const TransientResult r = transient.run(constant_control(400.0, 0.5), start);
  EXPECT_FALSE(r.runaway);
  EXPECT_EQ(r.steps, 0u);
  ASSERT_EQ(r.final_temperatures.size(), start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_EQ(r.final_temperatures[i], start[i]);
  }
  // The initial condition is still recorded, so callers can plot it.
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(r.samples[0].time, 0.0);

  TransientOptions bad;
  bad.duration = -1.0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);
}

TEST(Transient, VeryLargeTimeStepStaysStableAndLandsNearSteadyState) {
  // Backward Euler is A-stable: a dt far beyond every package time constant
  // must not oscillate or blow up — each giant step lands on the fixed point
  // of its linearized leakage, and re-evaluating the leakage at every step
  // walks it to the true one.
  const Workload w = make_workload(25.0);
  TransientOptions opts;
  opts.time_step = 1000.0;  // ~10^5 × the sink time constant
  opts.duration = 10000.0;  // 10 giant steps
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(450.0, 0.5), transient.ambient_state());
  ASSERT_FALSE(r.runaway);
  EXPECT_EQ(r.steps, 10u);
  for (const double t : r.final_temperatures) {
    ASSERT_TRUE(std::isfinite(t));
  }

  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(450.0, 0.5);
  ASSERT_TRUE(s.converged);
  EXPECT_NEAR(r.samples.back().max_chip_temperature, s.max_chip_temperature,
              0.5);
}

TEST(Transient, StepChangeMidHorizonMatchesTwoStageComposition) {
  // Integrating across a control step in one run must equal splitting the
  // run at the step and carrying the state over, bit for bit: a step depends
  // only on the state and setting it is given — the property that lets
  // serve sessions (and their re-binds) chain transient segments without
  // drift.
  const Workload w = make_workload(24.0);
  const double t_step = 0.25;  // exactly on a step boundary (25 × dt)

  TransientOptions whole_opts;
  whole_opts.time_step = 10e-3;
  whole_opts.duration = 0.5;
  const TransientEngine whole(model(), w.dynamic, w.leak, whole_opts);
  const TransientResult one_shot = whole.run(
      [t_step](double t) {
        return t < t_step ? ControlSetting{450.0, 0.0}
                          : ControlSetting{250.0, 1.5};
      },
      whole.ambient_state());
  ASSERT_FALSE(one_shot.runaway);

  TransientOptions half_opts = whole_opts;
  half_opts.duration = t_step;
  const TransientEngine half(model(), w.dynamic, w.leak, half_opts);
  const TransientResult leg1 =
      half.run(constant_control(450.0, 0.0), half.ambient_state());
  ASSERT_FALSE(leg1.runaway);
  const TransientResult leg2 =
      half.run(constant_control(250.0, 1.5), leg1.final_temperatures);
  ASSERT_FALSE(leg2.runaway);

  EXPECT_EQ(one_shot.final_temperatures, leg2.final_temperatures);
  EXPECT_EQ(one_shot.samples.back().max_chip_temperature,
            leg2.samples.back().max_chip_temperature);
}

TEST(Transient, PlanStepsCoversTheHorizonExactly) {
  // Even division: no remainder step.
  StepPlan p = plan_steps(1.0, 0.25);
  EXPECT_EQ(p.steps, 4u);
  EXPECT_DOUBLE_EQ(p.last_step, 0.25);

  // Remainder: a clamped final step lands exactly on the horizon.
  p = plan_steps(0.105, 0.01);
  EXPECT_EQ(p.steps, 11u);
  EXPECT_NEAR(p.last_step, 0.005, 1e-12);

  // Floating-point noise in duration/time_step must not spawn a zero-length
  // eleventh step.
  p = plan_steps(10 * 0.1, 0.1);
  EXPECT_EQ(p.steps, 10u);

  // Zero-length horizon: no steps.
  p = plan_steps(0.0, 0.1);
  EXPECT_EQ(p.steps, 0u);

  EXPECT_THROW((void)plan_steps(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)plan_steps(-1.0, 0.1), std::invalid_argument);
}

TEST(Transient, ClampedFinalStepLandsOnDuration) {
  const Workload w = make_workload(22.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.105;  // 10 full steps + one clamped half-step
  const TransientEngine transient(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      transient.run(constant_control(400.0, 0.5), transient.ambient_state());
  ASSERT_FALSE(r.runaway);
  EXPECT_EQ(r.steps, 11u);
  EXPECT_DOUBLE_EQ(r.samples.back().time, 0.105);
}

TEST(Transient, StateArityChecked) {
  const Workload w = make_workload(20.0);
  const TransientEngine transient(model(), w.dynamic, w.leak);
  EXPECT_THROW(
      (void)transient.run(constant_control(300.0, 0.0), la::Vector(3, 318.0)),
      std::invalid_argument);
}

}  // namespace
}  // namespace oftec::thermal
