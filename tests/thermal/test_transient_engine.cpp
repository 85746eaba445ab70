// TransientEngine's accuracy contract: it agrees with the direct transient
// oracle (transient_oracle.h) within kEngineAgreementK on every recorded max
// chip temperature and every final node temperature — across record
// strides, controller types, runaway early-exits, indefinite step matrices
// and clamped horizons — and two runs on the same inputs are bit-identical,
// on a pooled stepper, a fresh engine, or run_batch at any thread count.
#include "thermal/transient_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
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

using testing::kEngineAgreementK;
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

/// Field-for-field bit equality: two runs of the engine on the same inputs.
void expect_identical(const TransientResult& a, const TransientResult& b) {
  EXPECT_EQ(a.runaway, b.runaway);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].time, b.samples[i].time) << "sample " << i;
    EXPECT_EQ(a.samples[i].max_chip_temperature,
              b.samples[i].max_chip_temperature)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].tec_power, b.samples[i].tec_power)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].fan_power, b.samples[i].fan_power)
        << "sample " << i;
    EXPECT_EQ(a.samples[i].leakage_power, b.samples[i].leakage_power)
        << "sample " << i;
  }
  ASSERT_EQ(a.final_temperatures.size(), b.final_temperatures.size());
  for (std::size_t i = 0; i < a.final_temperatures.size(); ++i) {
    EXPECT_EQ(a.final_temperatures[i], b.final_temperatures[i])
        << "node " << i;
  }
}

/// The engine against the direct oracle: the same verdict, steps and sample
/// times, and every recorded max chip temperature and final node temperature
/// within kEngineAgreementK (max_deviation_k is infinite when the verdicts,
/// step counts or sample counts differ).
void expect_agrees(const TransientResult& ref, const TransientResult& eng) {
  EXPECT_LE(testing::max_deviation_k(ref, eng), kEngineAgreementK);
  ASSERT_EQ(ref.samples.size(), eng.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i) {
    EXPECT_EQ(ref.samples[i].time, eng.samples[i].time) << "sample " << i;
  }
}

TEST(TransientEngine, MatchesOracleAcrossStrides) {
  const Workload w = make_workload(24.0);
  TransientResult every_step;
  for (const std::size_t stride : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}}) {
    TransientOptions opts;
    opts.time_step = 10e-3;
    opts.duration = 0.3;
    opts.record_stride = stride;
    const TransientOracle reference(model(), w.dynamic, w.leak, opts);
    const TransientEngine engine(model(), w.dynamic, w.leak, opts);
    const TransientResult ref = reference.run_closed_loop(
        constant_control(400.0, 1.0), reference.ambient_state());
    const TransientResult eng = engine.run_closed_loop(
        constant_control(400.0, 1.0), engine.ambient_state());
    ASSERT_FALSE(ref.runaway);
    expect_agrees(ref, eng);
    EXPECT_EQ(engine.stats().factorizations, 0u);
    // Recording does not touch the integration: a strided sample is the
    // every-step sample of the same step, bit for bit.
    if (stride == 1) every_step = eng;
    for (std::size_t i = 0; i + 1 < eng.samples.size(); ++i) {
      EXPECT_EQ(eng.samples[i].max_chip_temperature,
                every_step.samples[i * stride].max_chip_temperature)
          << "stride " << stride << ", sample " << i;
    }
    EXPECT_EQ(eng.final_temperatures, every_step.final_temperatures);
  }
}

TEST(TransientEngine, BitIdenticalUnderStatefulToggleController) {
  // The oracle bound, and a second run on the same engine (its pooled
  // stepper) and a run on a fresh engine reproduce the first bit for bit.
  const Workload w = make_workload(26.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.5;
  const TransientOracle reference(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const la::Vector init(model().layout().node_count(), 341.0);  // above trip
  const TransientResult ref = reference.run_closed_loop(toggle_control(), init);
  const TransientResult eng = engine.run_closed_loop(toggle_control(), init);
  ASSERT_FALSE(ref.runaway);
  expect_agrees(ref, eng);
  expect_identical(eng, engine.run_closed_loop(toggle_control(), init));
  const TransientEngine fresh(model(), w.dynamic, w.leak, opts);
  expect_identical(eng, fresh.run_closed_loop(toggle_control(), init));
  EXPECT_EQ(engine.stats().factorizations, 0u);
}

TEST(TransientEngine, BitIdenticalUnderScheduleStepChange) {
  const Workload w = make_workload(24.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.4;
  const TransientOracle reference(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const ControlSchedule schedule = [](double t) {
    return t < 0.2 ? ControlSetting{450.0, 0.0} : ControlSetting{250.0, 1.5};
  };
  const TransientResult ref =
      reference.run(schedule, reference.ambient_state());
  const TransientResult eng = engine.run(schedule, engine.ambient_state());
  ASSERT_FALSE(ref.runaway);
  expect_agrees(ref, eng);
  expect_identical(eng, engine.run(schedule, engine.ambient_state()));
  EXPECT_EQ(engine.stats().factorizations, 0u);
}

TEST(TransientEngine, ServeShapedRunsRepeatBitIdenticallyWithoutFactoring) {
  // The serve transient request: five 1-ms steps from ambient. Twenty of
  // them on one engine, interleaved with runs from other states and
  // settings on the same pooled stepper, factor nothing and return the same
  // bits every time.
  const Workload w = make_workload(24.0);
  TransientOptions opts;
  opts.time_step = 1e-3;
  opts.duration = 5e-3;
  const TransientOracle reference(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const TransientResult first = engine.run_closed_loop(
      constant_control(400.0, 1.0), engine.ambient_state());
  ASSERT_EQ(first.steps, 5u);
  expect_agrees(reference.run_closed_loop(constant_control(400.0, 1.0),
                                          reference.ambient_state()),
                first);
  const la::Vector warm(model().layout().node_count(), 341.0);
  for (int rep = 0; rep < 20; ++rep) {
    (void)engine.run_closed_loop(constant_control(250.0, 0.5 * (rep % 3)),
                                 warm);
    expect_identical(first,
                     engine.run_closed_loop(constant_control(400.0, 1.0),
                                            engine.ambient_state()));
  }
  const TransientEngineStats stats = engine.stats();
  EXPECT_EQ(stats.runs, 41u);
  EXPECT_EQ(stats.factorizations, 0u);
  EXPECT_GT(stats.cg_iterations, 0u);
}

TEST(TransientEngine, RunawayEarlyExitMatchesReference) {
  // 35 W with the fan stopped runs away from ambient in ≈ 110 s. The two
  // agree within kEngineAgreementK on every sample recorded below 400 K
  // (4.2e-7 K at 399 K). Closer to ≈ 420 K, where the 50-ms step matrix
  // turns singular, its conditioning and so the CG stop rule's error grow
  // (9.8e-6 K at 419 K); past it the matrix is indefinite and the linearly
  // implicit step turns chaotic — the oracle alternates Cholesky and LU
  // steps tens of kelvin apart, and its own verdict moves by two steps
  // between the scalar and simd kernels — so there only the verdict is
  // compared: both run away, within two seconds of simulated time (the
  // oracle at step 2 231, the engine at 2 213).
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
  EXPECT_NEAR(static_cast<double>(eng.steps), static_cast<double>(ref.steps),
              2.0 / opts.time_step);
  EXPECT_TRUE(eng.final_temperatures.empty());
  std::size_t compared = 0;
  for (std::size_t i = 0; i < ref.samples.size() && i < eng.samples.size();
       ++i) {
    if (ref.samples[i].max_chip_temperature >= 400.0) break;
    EXPECT_NEAR(ref.samples[i].max_chip_temperature,
                eng.samples[i].max_chip_temperature, kEngineAgreementK)
        << "sample " << i;
    ++compared;
  }
  EXPECT_GE(compared, 10u);
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
  expect_agrees(ref, eng);
  EXPECT_EQ(engine.stats().factorizations, 0u);
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
    jobs[2].control = toggle_control();
    jobs[2].initial_temperatures =
        la::Vector(model().layout().node_count(), 341.0);
    jobs[2].options = base;
    jobs[2].options.record_stride = 3;
    jobs[3] = {constant_control(450.0, 1.5),
               la::Vector(model().layout().node_count(), 318.0), base};
    jobs[3].options.duration = 0.15;
    return jobs;
  };

  // Serial baseline: the engine's own run_closed_loop, one job after the
  // other, each within the oracle bound.
  std::vector<TransientResult> serial;
  {
    const TransientEngine engine(model(), w.dynamic, w.leak, base);
    for (const TransientJob& job : make_jobs()) {
      serial.push_back(engine.run_closed_loop(
          job.control, job.initial_temperatures, job.options));
    }
    const std::vector<TransientJob> jobs = make_jobs();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const TransientOracle reference(model(), w.dynamic, w.leak,
                                      jobs[i].options);
      expect_agrees(reference.run_closed_loop(jobs[i].control,
                                              jobs[i].initial_temperatures),
                    serial[i]);
    }
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
    EXPECT_EQ(engine.stats().factorizations, 0u);
  }
}

TEST(TransientEngine, StatsCountCgIterationsWithoutFactorizations) {
  const Workload w = make_workload(24.0);
  const SteadySolver steady(model(), w.dynamic, w.leak);
  const SteadyResult s = steady.solve(400.0, 1.0);
  ASSERT_TRUE(s.converged);

  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 1.0;
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const TransientResult r =
      engine.run_closed_loop(constant_control(400.0, 1.0), s.temperatures);
  ASSERT_FALSE(r.runaway);

  const TransientEngineStats stats = engine.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.steps, r.steps);
  // Every step is a CG solve; none falls back to the band.
  EXPECT_GE(stats.cg_iterations, stats.steps);
  EXPECT_EQ(stats.factorizations, 0u);
  EXPECT_EQ(stats.lu_fallbacks, 0u);

  engine.reset_stats();
  EXPECT_EQ(engine.stats().runs, 0u);
  EXPECT_EQ(engine.stats().steps, 0u);
  EXPECT_EQ(engine.stats().cg_iterations, 0u);
}

/// The backward-Euler step matrix C/dt + M at a uniform start temperature
/// (leakage tangent there, fan stopped, no TEC current) and its right-hand
/// side: the first step of a constant_control(0, 0) run.
AssembledSystem first_step_system(const Workload& w, double start, double dt) {
  std::vector<power::TaylorCoefficients> taylor(w.leak.size());
  for (std::size_t i = 0; i < taylor.size(); ++i) {
    taylor[i] = power::tangent_linearize(w.leak[i], start);
  }
  AssembledSystem sys = model().assemble(0.0, 0.0, w.dynamic, taylor);
  const la::Vector& cap = model().capacitances();
  for (std::size_t i = 0; i < cap.size(); ++i) {
    sys.matrix.add(i, i, cap[i] / dt);
    sys.rhs[i] += cap[i] / dt * start;
  }
  return sys;
}

TEST(TransientEngine, LuFallbackOnIndefiniteStepMatrixMatchesReference) {
  // Hot chips make the leakage tangent steep enough that, with the fan
  // stopped, C/dt no longer keeps a 1-s step matrix positive definite. The
  // engine's step falls back to the oracle's banded step, whose Cholesky
  // meets a non-positive pivot and takes the pivoted LU: that step matches
  // bit for bit. From 412 K and 420 K the LU step leaves the physical range
  // (below 0 K; from 420 K also above the limit), so both verdicts call the
  // first step runaway. From 436 K the LU step stays physical and is
  // accepted; the next step runs on CG again, and both runs call that one
  // runaway.
  const Workload w = make_workload(24.0);
  for (const double start : {412.0, 420.0, 436.0}) {
    ASSERT_EQ(la::BandedFactor(first_step_system(w, start, 1.0).matrix).kind(),
              la::BandedFactor::Kind::kLu)
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
    EXPECT_TRUE(ref.runaway) << start;
    EXPECT_EQ(ref.runaway, eng.runaway) << start;
    EXPECT_EQ(ref.steps, start > 430.0 ? 1u : 0u) << start;
    EXPECT_EQ(ref.steps, eng.steps) << start;
    EXPECT_EQ(engine.stats().lu_fallbacks, 1u) << start;
    EXPECT_EQ(engine.stats().factorizations, 1u) << start;
    ASSERT_EQ(ref.samples.size(), eng.samples.size());
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_EQ(ref.samples[i].max_chip_temperature,
                eng.samples[i].max_chip_temperature)
          << start << " K, sample " << i;
    }
  }

  // After 436 K's accepted LU step the stepper is back on CG: the next step
  // converges by CG (no second factorization) to a state the verdict
  // rejects.
  TransientStepper stepper(model(), w.leak);
  stepper.reset(la::Vector(model().layout().node_count(), 436.0));
  ASSERT_TRUE(stepper.step({0.0, 0.0}, w.dynamic, 1.0));
  EXPECT_EQ(stepper.lu_fallbacks(), 1u);
  const std::size_t cg_after_lu = stepper.cg_iterations();
  EXPECT_FALSE(stepper.step({0.0, 0.0}, w.dynamic, 1.0));
  EXPECT_EQ(stepper.factorizations(), 1u);
  EXPECT_GT(stepper.cg_iterations(), cg_after_lu);
  EXPECT_EQ(stepper.steps(), 1u);
}

TEST(TransientEngine, StepBelowAbsoluteZeroFailsTheVerdict) {
  // From a uniform 412 K with the fan stopped, the 1-s step's LU solution
  // puts every chip cell below 0 K while no node exceeds the 500-K limit,
  // so only the verdict's lower bound can reject it. The stepper (under
  // both checks) and the oracle call the step runaway, and the stepper
  // keeps its state.
  const Workload w = make_workload(24.0);
  const double start = 412.0;
  const AssembledSystem sys = first_step_system(w, start, 1.0);
  const la::BandedFactor factor(sys.matrix);
  ASSERT_EQ(factor.kind(), la::BandedFactor::Kind::kLu);
  const la::Vector landed = factor.solve(sys.rhs);
  EXPECT_LT(model().max_slab_temperature(landed, Slab::kChip), 0.0);
  EXPECT_LE(*std::max_element(landed.begin(), landed.end()), 500.0);

  const la::Vector hot(model().layout().node_count(), start);
  for (const RunawayCheck check :
       {RunawayCheck::kAllNodes, RunawayCheck::kChipOnly}) {
    TransientStepper stepper(model(), w.leak, {500.0, check});
    stepper.reset(hot);
    EXPECT_FALSE(stepper.step({0.0, 0.0}, w.dynamic, 1.0));
    EXPECT_EQ(stepper.steps(), 0u);
    EXPECT_EQ(stepper.lu_fallbacks(), 1u);
    EXPECT_EQ(stepper.temperatures(), hot);
    EXPECT_EQ(stepper.max_chip_temperature(), start);
  }

  TransientOptions opts;
  opts.time_step = 1.0;
  opts.duration = 1.0;
  const TransientResult ref =
      TransientOracle(model(), w.dynamic, w.leak, opts)
          .run_closed_loop(constant_control(0.0, 0.0), hot);
  EXPECT_TRUE(ref.runaway);
  EXPECT_EQ(ref.steps, 0u);
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
