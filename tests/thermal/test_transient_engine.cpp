// TransientEngine's exactness contract: for identical inputs it must produce
// bit-identical TransientResults to the transient oracle
// (transient_oracle.h) — across record strides, controller types,
// leakage-slope tolerances, runaway early-exits, clamped horizons, and
// run_batch at any thread count.
#include "thermal/transient_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "floorplan/ev6.h"
#include "la/banded_factor.h"
#include "power/mcpat_like.h"
#include "thermal/steady.h"
#include "thermal/transient.h"
#include "transient_oracle.h"

namespace oftec::thermal {
namespace {

using testing::TransientOracle;

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

Workload make_workload(double watts) {
  power::PowerMap dyn(fp());
  for (std::size_t b = 0; b < fp().block_count(); ++b) {
    dyn.set(b, watts * fp().blocks()[b].area() / fp().die_area());
  }
  const auto leak_model =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return {model().distribute(dyn), model().cell_leakage(leak_model)};
}

FeedbackControl constant_control(double omega, double current) {
  return [omega, current](double, double) {
    return ControlSetting{omega, current};
  };
}

/// Stateful hysteresis controller (the LUT / fail-safe chain shape): toggles
/// between a quiet and an aggressive setting on temperature thresholds.
/// Each call to the factory yields a fresh, self-contained instance so the
/// reference and engine runs see identical controller state machines.
FeedbackControl toggle_control() {
  return [aggressive = false](double, double max_chip) mutable {
    if (!aggressive && max_chip > 340.0) aggressive = true;
    if (aggressive && max_chip < 335.0) aggressive = false;
    return aggressive ? ControlSetting{450.0, 1.5} : ControlSetting{250.0, 0.0};
  };
}

// Slope tolerances the contract is checked at: per-step tangents, the
// default, and a tight hold (0.0015 ≈ 0.05 K of drift at β = 0.03/K).
constexpr double kTolerances[] = {0.0, kDefaultRelinearizationThreshold,
                                  0.0015};

void expect_identical(const TransientResult& ref, const TransientResult& eng) {
  EXPECT_EQ(ref.runaway, eng.runaway);
  EXPECT_EQ(ref.steps, eng.steps);
  ASSERT_EQ(ref.samples.size(), eng.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i) {
    EXPECT_EQ(ref.samples[i].time, eng.samples[i].time) << "sample " << i;
    EXPECT_EQ(ref.samples[i].max_chip_temperature,
              eng.samples[i].max_chip_temperature)
        << "sample " << i;
    EXPECT_EQ(ref.samples[i].tec_power, eng.samples[i].tec_power)
        << "sample " << i;
    EXPECT_EQ(ref.samples[i].fan_power, eng.samples[i].fan_power)
        << "sample " << i;
    EXPECT_EQ(ref.samples[i].leakage_power, eng.samples[i].leakage_power)
        << "sample " << i;
  }
  ASSERT_EQ(ref.final_temperatures.size(), eng.final_temperatures.size());
  for (std::size_t i = 0; i < ref.final_temperatures.size(); ++i) {
    EXPECT_EQ(ref.final_temperatures[i], eng.final_temperatures[i])
        << "node " << i;
  }
}

TEST(TransientEngine, BitIdenticalAcrossStridesAndThresholds) {
  const Workload w = make_workload(24.0);
  for (const std::size_t stride : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}}) {
    for (const double tolerance : kTolerances) {
      TransientOptions opts;
      opts.time_step = 10e-3;
      opts.duration = 0.3;
      opts.record_stride = stride;
      opts.relinearization_threshold = tolerance;
      const TransientOracle reference(model(), w.dynamic, w.leak, opts);
      const TransientEngine engine(model(), w.dynamic, w.leak, opts);
      const TransientResult ref = reference.run_closed_loop(
          constant_control(400.0, 1.0), reference.ambient_state());
      const TransientResult eng = engine.run_closed_loop(
          constant_control(400.0, 1.0), engine.ambient_state());
      ASSERT_FALSE(ref.runaway);
      expect_identical(ref, eng);
      EXPECT_EQ(engine.stats().lu_fallbacks, 0u);
    }
  }
}

TEST(TransientEngine, BitIdenticalUnderStatefulToggleController) {
  const Workload w = make_workload(26.0);
  for (const double tolerance : kTolerances) {
    TransientOptions opts;
    opts.time_step = 10e-3;
    opts.duration = 0.5;
    opts.relinearization_threshold = tolerance;
    const TransientOracle reference(model(), w.dynamic, w.leak, opts);
    const TransientEngine engine(model(), w.dynamic, w.leak, opts);
    const la::Vector init(model().layout().node_count(), 341.0);  // above trip
    const TransientResult ref =
        reference.run_closed_loop(toggle_control(), init);
    const TransientResult eng = engine.run_closed_loop(toggle_control(), init);
    ASSERT_FALSE(ref.runaway) << tolerance;
    expect_identical(ref, eng);
    EXPECT_EQ(engine.stats().lu_fallbacks, 0u);
  }
}

TEST(TransientEngine, BitIdenticalUnderScheduleStepChange) {
  const Workload w = make_workload(24.0);
  for (const double tolerance : kTolerances) {
    TransientOptions opts;
    opts.time_step = 10e-3;
    opts.duration = 0.4;
    opts.relinearization_threshold = tolerance;
    const TransientOracle reference(model(), w.dynamic, w.leak, opts);
    const TransientEngine engine(model(), w.dynamic, w.leak, opts);
    const ControlSchedule schedule = [](double t) {
      return t < 0.2 ? ControlSetting{450.0, 0.0} : ControlSetting{250.0, 1.5};
    };
    const TransientResult ref =
        reference.run(schedule, reference.ambient_state());
    const TransientResult eng = engine.run(schedule, engine.ambient_state());
    ASSERT_FALSE(ref.runaway) << tolerance;
    expect_identical(ref, eng);
    EXPECT_EQ(engine.stats().lu_fallbacks, 0u);
  }
}

TEST(TransientEngine, RunawayEarlyExitMatchesReference) {
  const Workload w = make_workload(35.0);
  TransientOptions opts;
  opts.time_step = 50e-3;
  opts.duration = 600.0;
  opts.record_stride = 200;
  const TransientOracle reference(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const TransientResult ref = reference.run(
      [](double) { return ControlSetting{0.0, 0.0}; },
      reference.ambient_state());
  const TransientResult eng = engine.run(
      [](double) { return ControlSetting{0.0, 0.0}; }, engine.ambient_state());
  ASSERT_TRUE(ref.runaway);
  EXPECT_TRUE(eng.runaway);
  EXPECT_EQ(ref.steps, eng.steps);  // diverges at the same step
  expect_identical(ref, eng);
}

TEST(TransientEngine, ZeroLengthHorizonIsANoOp) {
  const Workload w = make_workload(20.0);
  TransientOptions opts;
  opts.duration = 0.0;
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const la::Vector start(model().layout().node_count(), 330.0);
  const TransientResult r =
      engine.run_closed_loop(constant_control(400.0, 0.5), start);
  EXPECT_FALSE(r.runaway);
  EXPECT_EQ(r.steps, 0u);
  ASSERT_EQ(r.final_temperatures.size(), start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_EQ(r.final_temperatures[i], start[i]);
  }
  ASSERT_EQ(r.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(r.samples[0].time, 0.0);
}

TEST(TransientEngine, ClampedHorizonMatchesReferenceAndLandsOnDuration) {
  const Workload w = make_workload(22.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.105;  // 10 full steps + a half-step remainder
  const TransientOracle reference(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const TransientResult ref = reference.run_closed_loop(
      constant_control(400.0, 0.5), reference.ambient_state());
  const TransientResult eng = engine.run_closed_loop(
      constant_control(400.0, 0.5), engine.ambient_state());
  ASSERT_FALSE(ref.runaway);
  EXPECT_EQ(ref.steps, 11u);
  EXPECT_DOUBLE_EQ(ref.samples.back().time, 0.105);
  expect_identical(ref, eng);
  EXPECT_EQ(engine.stats().lu_fallbacks, 0u);
}

TEST(TransientEngine, RunBatchBitIdenticalToSerialAtAnyThreadCount) {
  const Workload w = make_workload(24.0);
  TransientOptions base;
  base.time_step = 10e-3;
  base.duration = 0.2;

  // The toggle job carries controller state, so every run — serial baseline
  // and each batch — gets a freshly built job list.
  const auto make_jobs = [&base] {
    std::vector<TransientJob> jobs(4);
    jobs[0] = {constant_control(400.0, 1.0),
               la::Vector(model().layout().node_count(), 318.0), base};
    jobs[1] = {constant_control(250.0, 0.0),
               la::Vector(model().layout().node_count(), 330.0), base};
    jobs[1].options.relinearization_threshold = 0.0;
    jobs[2].control = toggle_control();
    jobs[2].initial_temperatures =
        la::Vector(model().layout().node_count(), 341.0);
    jobs[2].options = base;
    jobs[2].options.record_stride = 3;
    jobs[3] = {constant_control(450.0, 1.5),
               la::Vector(model().layout().node_count(), 318.0), base};
    jobs[3].options.relinearization_threshold = 0.0015;
    return jobs;
  };

  // Serial baseline from the oracle.
  std::vector<TransientResult> serial;
  for (const TransientJob& job : make_jobs()) {
    const TransientOracle reference(model(), w.dynamic, w.leak, job.options);
    serial.push_back(
        reference.run_closed_loop(job.control, job.initial_temperatures));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4}}) {
    TransientEngine::Config cfg;
    cfg.threads = threads;
    const TransientEngine engine(model(), w.dynamic, w.leak, base, cfg);
    const std::vector<TransientResult> batched =
        engine.run_batch(make_jobs());
    ASSERT_EQ(batched.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      expect_identical(serial[i], batched[i]);
    }
    EXPECT_EQ(engine.stats().lu_fallbacks, 0u);
  }
}

TEST(TransientEngine, StatsShowFactorReuseUnderHold) {
  const Workload w = make_workload(24.0);
  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(400.0, 1.0);
  ASSERT_TRUE(s.converged);

  // 0.003 ≈ 0.1 K of drift at β = 0.03/K.
  for (const double tolerance : {0.003, kDefaultRelinearizationThreshold}) {
    TransientOptions opts;
    opts.time_step = 10e-3;
    opts.duration = 1.0;
    opts.relinearization_threshold = tolerance;
    const TransientEngine engine(model(), w.dynamic, w.leak, opts);
    const TransientResult r = engine.run_closed_loop(
        constant_control(400.0, 1.0), s.temperatures);
    ASSERT_FALSE(r.runaway);

    const TransientEngineStats stats = engine.stats();
    EXPECT_EQ(stats.runs, 1u);
    EXPECT_EQ(stats.steps, r.steps);
    // From a steady start under a held setting, the slopes hold and one
    // factorization serves (nearly) the whole run.
    EXPECT_LT(stats.factorizations, stats.steps / 4) << tolerance;
    EXPECT_GT(stats.factor_hits, 0u);

    engine.reset_stats();
    EXPECT_EQ(engine.stats().runs, 0u);
    EXPECT_EQ(engine.stats().steps, 0u);
  }
}

TEST(TransientEngine, LuFallbackOnIndefiniteStepMatrixMatchesReference) {
  // Hot chips make the leakage tangent steep enough that, with the fan
  // stopped, C/dt no longer keeps a 1-s step matrix positive definite:
  // Cholesky meets a non-positive pivot and both implementations must take
  // the same pivoted-LU fallback, to the bit. From 412 K the LU steps are
  // accepted and the run recovers onto Cholesky; from 420 K the first LU
  // step already fails the runaway verdict.
  const Workload w = make_workload(24.0);
  for (const double start : {412.0, 420.0}) {
    std::vector<power::TaylorCoefficients> taylor(w.leak.size());
    for (std::size_t i = 0; i < taylor.size(); ++i) {
      taylor[i] = power::tangent_linearize(w.leak[i], start);
    }
    AssembledSystem sys = model().assemble(0.0, 0.0, w.dynamic, taylor);
    const la::Vector& cap = model().capacitances();
    for (std::size_t i = 0; i < cap.size(); ++i) {
      sys.matrix.add(i, i, cap[i] / 1.0);
    }
    ASSERT_EQ(la::BandedFactor(sys.matrix).kind(), la::BandedFactor::Kind::kLu)
        << "the first step matrix from " << start
        << " K must be indefinite but LU-solvable";

    TransientOptions opts;
    opts.time_step = 1.0;
    opts.duration = 5.0;
    const TransientOracle reference(model(), w.dynamic, w.leak, opts);
    const TransientEngine engine(model(), w.dynamic, w.leak, opts);
    const la::Vector hot(model().layout().node_count(), start);
    const TransientResult ref =
        reference.run_closed_loop(constant_control(0.0, 0.0), hot);
    const TransientResult eng =
        engine.run_closed_loop(constant_control(0.0, 0.0), hot);
    EXPECT_EQ(ref.runaway, start > 415.0) << start;
    expect_identical(ref, eng);  // includes the runaway verdict and steps
    EXPECT_GT(engine.stats().lu_fallbacks, 0u) << start;
    EXPECT_LE(engine.stats().lu_fallbacks, engine.stats().factorizations);
  }
}

TEST(TransientEngine, ValidatesArgumentsLikeReference) {
  const Workload w = make_workload(20.0);
  TransientOptions bad;
  bad.time_step = 0.0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);
  bad = TransientOptions{};
  bad.record_stride = 0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);
  bad = TransientOptions{};
  bad.relinearization_threshold = -1.0;
  EXPECT_THROW(TransientEngine(model(), w.dynamic, w.leak, bad),
               std::invalid_argument);

  const TransientEngine engine(model(), w.dynamic, w.leak);
  EXPECT_THROW((void)engine.run_closed_loop(constant_control(300.0, 0.0),
                                            la::Vector(3, 318.0)),
               std::invalid_argument);
  // Per-run options are validated too (the serve path passes them per call).
  TransientOptions bad_run;
  bad_run.duration = -1.0;
  EXPECT_THROW((void)engine.run_closed_loop(constant_control(300.0, 0.0),
                                            engine.ambient_state(), bad_run),
               std::invalid_argument);
}

TEST(TransientEngine, StepperRejectsOutOfRangeCurrent) {
  const Workload w = make_workload(20.0);
  TransientStepper stepper(model(), w.leak);
  stepper.reset(la::Vector(model().layout().node_count(), 318.0));
  const double too_much = model().config().tec.max_current * 2.0;
  EXPECT_THROW((void)stepper.step({300.0, too_much}, w.dynamic, 1e-3),
               std::invalid_argument);
  EXPECT_THROW((void)stepper.step({300.0, -1.0}, w.dynamic, 1e-3),
               std::invalid_argument);
  EXPECT_THROW((void)stepper.step({300.0, 0.0}, w.dynamic, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace oftec::thermal
