// Chaos tests for the solver stack: with fault injection armed at the rates
// the acceptance criteria demand, the engine and the DTM loop must never
// crash, never deadlock, and never report a wrong answer as a success —
// every injected failure surfaces as a structured status, a fallback tier,
// or an honest runaway verdict.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "../core/test_fixtures.h"
#include "../thermal/transient_oracle.h"
#include "core/cooling_system.h"
#include "la/backend.h"
#include "core/dtm_loop.h"
#include "thermal/solve_engine.h"
#include "thermal/transient_engine.h"
#include "util/fault.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace oftec {
namespace {

using core::testing::coarse_config;
using core::testing::fp;
using core::testing::leakage;
using core::testing::make_system;

class ChaosSolverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    fault::reset_counters();
  }
  void TearDown() override {
    fault::disarm_all();
    fault::reset_counters();
  }
};

std::vector<thermal::OperatingPoint> sweep_points(
    const core::CoolingSystem& system, std::size_t n_omega,
    std::size_t n_current) {
  std::vector<thermal::OperatingPoint> points;
  for (std::size_t i = 0; i < n_omega; ++i) {
    const double omega = system.omega_max() * (0.2 + 0.8 * static_cast<double>(i) /
                                                         static_cast<double>(n_omega));
    for (std::size_t j = 0; j < n_current; ++j) {
      const double current =
          system.current_max() * static_cast<double>(j) /
          static_cast<double>(n_current);
      points.push_back({omega, current});
    }
  }
  return points;
}

TEST_F(ChaosSolverTest, SweepUnderFaultsNeverLiesAboutSuccess) {
  const core::CoolingSystem system =
      make_system(workload::Benchmark::kSusan);
  const std::vector<thermal::OperatingPoint> points =
      sweep_points(system, 5, 4);

  // Faultless baseline first (also warms nothing relevant: solve() is pure).
  std::vector<thermal::SteadyResult> baseline;
  baseline.reserve(points.size());
  for (const auto& p : points) baseline.push_back(system.engine().solve(p));
  for (const auto& r : baseline) {
    ASSERT_EQ(r.status, SolveStatus::kOk);
    ASSERT_FALSE(r.runaway);
  }

  // Acceptance-rate chaos: every solver-side site at 10 %, fixed seed.
  (void)fault::arm("solve_engine.nonconverge", 0.1, 101);
  (void)fault::arm("solve_engine.nan", 0.1, 102);
  (void)fault::arm("la.cg_stall", 0.1, 103);

  std::size_t degraded = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const thermal::SteadyResult r = system.engine().solve(points[i]);
    // Invariant: a result is either an honest success or an honest failure.
    if (r.status == SolveStatus::kOk) {
      EXPECT_TRUE(r.converged);
      EXPECT_FALSE(r.runaway);
      ASSERT_TRUE(std::isfinite(r.max_chip_temperature));
      // cg_stall reroutes through the direct path, which converges to the
      // same fixed point within solver tolerance (not bit-identical).
      EXPECT_NEAR(r.max_chip_temperature, baseline[i].max_chip_temperature,
                  0.1);
    } else {
      ++degraded;
      EXPECT_TRUE(r.runaway || !r.converged)
          << "non-ok status must be visible in the legacy flags too";
    }
    // NaN must never escape: the sanitize barrier demotes it to a runaway.
    EXPECT_FALSE(std::isnan(r.max_chip_temperature));
    for (const double t : r.temperatures) EXPECT_FALSE(std::isnan(t));
  }
  // With 14 solves per Newton loop at 10 % rates some must have degraded —
  // otherwise the chaos rig is not actually wired in.
  EXPECT_GT(fault::fires("solve_engine.nonconverge") +
                fault::fires("solve_engine.nan") + fault::fires("la.cg_stall"),
            0u);
  (void)degraded;
}

TEST_F(ChaosSolverTest, CorruptedCachedFactorRecoversBitIdentically) {
  // Direct-solve engine: every solve goes through the factor cache.
  core::CoolingSystem::Config cfg = coarse_config();
  cfg.engine.use_iterative = false;
  const core::CoolingSystem system(
      fp(), core::testing::benchmark_power(workload::Benchmark::kSusan),
      leakage(), cfg);

  const thermal::OperatingPoint p{0.6 * system.omega_max(), 0.0};
  const thermal::SteadyResult clean = system.engine().solve(p);
  ASSERT_EQ(clean.status, SolveStatus::kOk);

  // Every cache hit now returns a corrupted factor; the engine must evict,
  // refactorize from the assembled matrix, and reproduce the clean answer
  // bit for bit.
  (void)fault::arm("solve_engine.factor_corrupt", 1.0, 7);
  const thermal::SteadyResult recovered = system.engine().solve(p);
  EXPECT_GT(fault::fires("solve_engine.factor_corrupt"), 0u);
  ASSERT_EQ(recovered.status, SolveStatus::kOk);
  EXPECT_EQ(recovered.max_chip_temperature, clean.max_chip_temperature);
  EXPECT_EQ(recovered.leakage_power, clean.leakage_power);
  EXPECT_EQ(recovered.tec_power, clean.tec_power);
  ASSERT_EQ(recovered.temperatures.size(), clean.temperatures.size());
  for (std::size_t i = 0; i < clean.temperatures.size(); ++i) {
    EXPECT_EQ(recovered.temperatures[i], clean.temperatures[i]);
  }
}

TEST_F(ChaosSolverTest, StalledTransientCgStepsTakeTheBandedFallback) {
  // A stalled CG step takes the banded fallback, which is the direct
  // oracle's step. With every solve stalled the run is the oracle's, bit
  // for bit, and factors once per step; at 10 % it stays within the oracle
  // bound of the fault-free run.
  const core::CoolingSystem system(
      fp(), core::testing::benchmark_power(workload::Benchmark::kSusan),
      leakage(), coarse_config());
  thermal::TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.3;
  const thermal::ControlSetting setting{0.6 * system.omega_max(), 0.0};
  const auto constant = [setting](double, double) { return setting; };

  const thermal::TransientEngine engine(
      system.thermal_model(), system.cell_dynamic_power(),
      system.cell_leakage(), opts);
  const thermal::TransientResult clean =
      engine.run_closed_loop(constant, engine.ambient_state());
  ASSERT_FALSE(clean.runaway);
  ASSERT_EQ(engine.stats().factorizations, 0u);

  const thermal::testing::TransientOracle oracle(
      system.thermal_model(), system.cell_dynamic_power(),
      system.cell_leakage(), opts);
  const thermal::TransientResult direct =
      oracle.run_closed_loop(constant, oracle.ambient_state());
  engine.reset_stats();
  (void)fault::arm("la.cg_stall", 1.0, 7);
  const thermal::TransientResult stalled =
      engine.run_closed_loop(constant, engine.ambient_state());
  fault::disarm_all();
  EXPECT_EQ(engine.stats().factorizations, clean.steps);
  EXPECT_EQ(thermal::testing::max_deviation_k(stalled, direct), 0.0);
  EXPECT_EQ(stalled.final_temperatures, direct.final_temperatures);

  engine.reset_stats();
  (void)fault::arm("la.cg_stall", 0.1, 7);
  const thermal::TransientResult partly =
      engine.run_closed_loop(constant, engine.ambient_state());
  EXPECT_GT(fault::fires("la.cg_stall"), 0u);
  fault::disarm_all();
  EXPECT_FALSE(partly.runaway);
  EXPECT_GT(engine.stats().factorizations, 0u);
  EXPECT_LT(engine.stats().factorizations, clean.steps);
  EXPECT_LE(thermal::testing::max_deviation_k(partly, clean),
            thermal::testing::kEngineAgreementK);
}

TEST_F(ChaosSolverTest, SimdUnavailableFaultDegradesDispatchToScalar) {
  // A machine whose simd path is unusable (masked CPUID, microcode disable)
  // must come up on the scalar kernels with a warning, not abort — and the
  // solver's answers must not depend on which way dispatch went, because
  // scalar is the reference semantics.
  const core::CoolingSystem system =
      make_system(workload::Benchmark::kSusan);
  const thermal::OperatingPoint p{0.5 * system.omega_max(), 0.5};

  la::install_backend("scalar");
  const thermal::SteadyResult scalar_result = system.engine().solve(p);
  ASSERT_EQ(scalar_result.status, SolveStatus::kOk);

  (void)fault::arm("la.backend.simd_unavailable", 1.0, 11);
  const la::BackendOps& degraded = la::install_backend("simd");
  EXPECT_GT(fault::fires("la.backend.simd_unavailable"), 0u);
  EXPECT_EQ(degraded.kind, la::BackendKind::kScalar);

  const thermal::SteadyResult degraded_result = system.engine().solve(p);
  EXPECT_EQ(degraded_result.status, SolveStatus::kOk);
  EXPECT_EQ(degraded_result.max_chip_temperature,
            scalar_result.max_chip_temperature);
  ASSERT_EQ(degraded_result.temperatures.size(),
            scalar_result.temperatures.size());
  for (std::size_t i = 0; i < scalar_result.temperatures.size(); ++i) {
    EXPECT_EQ(degraded_result.temperatures[i], scalar_result.temperatures[i]);
  }

  // Disarm and re-request simd: dispatch recovers to the wide kernels.
  fault::disarm_all();
  const la::BackendOps& recovered = la::install_backend("simd");
  if (la::simd_supported()) {
    EXPECT_EQ(recovered.kind, la::BackendKind::kSimd);
  } else {
    EXPECT_EQ(recovered.kind, la::BackendKind::kScalar);
  }
  la::install_backend(std::getenv("OFTEC_LA_BACKEND"));
}

TEST_F(ChaosSolverTest, TransientSelfHealStaysBitIdenticalUnderSimd) {
  // A stalled CG step heals through the banded fallback whatever the
  // backend: under the simd kernels a run whose every solve stalls is that
  // backend's direct oracle run, bit for bit, and one whose solves stall
  // 10 % of the time stays within the oracle bound of its fault-free run.
  if (!la::simd_supported()) {
    GTEST_SKIP() << "no simd backend on this machine";
  }
  la::install_backend("simd");
  const core::CoolingSystem system(
      fp(), core::testing::benchmark_power(workload::Benchmark::kSusan),
      leakage(), coarse_config());
  thermal::TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.3;
  const thermal::ControlSetting setting{0.6 * system.omega_max(), 0.0};
  const auto constant = [setting](double, double) { return setting; };

  const thermal::TransientEngine engine(
      system.thermal_model(), system.cell_dynamic_power(),
      system.cell_leakage(), opts);
  const thermal::TransientResult clean =
      engine.run_closed_loop(constant, engine.ambient_state());
  ASSERT_FALSE(clean.runaway);

  const thermal::testing::TransientOracle oracle(
      system.thermal_model(), system.cell_dynamic_power(),
      system.cell_leakage(), opts);
  const thermal::TransientResult direct =
      oracle.run_closed_loop(constant, oracle.ambient_state());
  (void)fault::arm("la.cg_stall", 1.0, 11);
  const thermal::TransientResult stalled =
      engine.run_closed_loop(constant, engine.ambient_state());
  fault::disarm_all();
  EXPECT_EQ(thermal::testing::max_deviation_k(stalled, direct), 0.0);
  EXPECT_EQ(stalled.final_temperatures, direct.final_temperatures);

  engine.reset_stats();
  (void)fault::arm("la.cg_stall", 0.1, 11);
  const thermal::TransientResult partly =
      engine.run_closed_loop(constant, engine.ambient_state());
  EXPECT_GT(fault::fires("la.cg_stall"), 0u);
  fault::disarm_all();
  EXPECT_FALSE(partly.runaway);
  EXPECT_GT(engine.stats().factorizations, 0u);
  EXPECT_LE(thermal::testing::max_deviation_k(partly, clean),
            thermal::testing::kEngineAgreementK);
  la::install_backend(std::getenv("OFTEC_LA_BACKEND"));
}

TEST_F(ChaosSolverTest, AllocFailureSurfacesAndEngineStaysUsable) {
  core::CoolingSystem::Config cfg = coarse_config();
  cfg.engine.use_iterative = false;
  const core::CoolingSystem system(
      fp(), core::testing::benchmark_power(workload::Benchmark::kSusan),
      leakage(), cfg);
  const thermal::OperatingPoint p{0.5 * system.omega_max(), 0.0};
  const thermal::SteadyResult clean = system.engine().solve(p);

  (void)fault::arm("solve_engine.alloc_fail", 1.0, 3);
  EXPECT_THROW((void)system.engine().solve(p), std::bad_alloc);
  fault::disarm_all();

  const thermal::SteadyResult after = system.engine().solve(p);
  ASSERT_EQ(after.status, SolveStatus::kOk);
  EXPECT_EQ(after.max_chip_temperature, clean.max_chip_temperature);
}

TEST_F(ChaosSolverTest, ThreadPoolDegradesToFewerWorkers) {
  // Every spawn fails: the pool must come up empty and run work inline.
  (void)fault::arm("thread_pool.spawn_fail", 1.0, 1);
  util::ThreadPool crippled(4);
  std::vector<int> hit(64, 0);
  crippled.parallel_for(hit.size(), [&](std::size_t i) { hit[i] = 1; });
  for (const int h : hit) EXPECT_EQ(h, 1);
  fault::disarm_all();

  // Batched solves with a half-crippled pool still match the serial path.
  (void)fault::arm("thread_pool.spawn_fail", 0.5, 9);
  core::CoolingSystem::Config cfg = coarse_config();
  cfg.engine.threads = 4;
  const core::CoolingSystem system(
      fp(), core::testing::benchmark_power(workload::Benchmark::kSusan),
      leakage(), cfg);
  fault::disarm_all();
  const std::vector<thermal::OperatingPoint> points =
      sweep_points(system, 3, 3);
  const std::vector<thermal::SteadyResult> batched =
      system.engine().solve_batch(points);
  const std::vector<thermal::SteadyResult> serial =
      system.engine().solve_serial(points);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].max_chip_temperature,
              serial[i].max_chip_temperature);
  }
}

workload::PowerTrace chaos_trace() {
  workload::TraceOptions opts;
  opts.sample_count = 40;
  opts.sample_interval = 0.05;  // 2 s total
  return workload::generate_trace(
      workload::profile_for(workload::Benchmark::kFft), fp(), opts);
}

TEST_F(ChaosSolverTest, DtmLoopUnderFaultsReportsHonestStatus) {
  const workload::PowerTrace trace = chaos_trace();
  core::DtmOptions opts;
  opts.policy = core::DtmPolicy::kExactOftec;
  opts.system = coarse_config();
  opts.control_period = 1.0;
  opts.time_step = 25e-3;

  (void)fault::arm("solve_engine.nonconverge", 0.1, 41);
  (void)fault::arm("solve_engine.nan", 0.1, 42);
  (void)fault::arm("la.cg_stall", 0.1, 43);

  const core::DtmResult r = run_dtm_loop(fp(), trace, leakage(), opts);

  // The honesty invariant: kOk promises a clean run. Any violation time,
  // fallback decision, or watchdog trip must demote the status.
  if (r.status == core::ControlStatus::kOk) {
    EXPECT_DOUBLE_EQ(r.violation_time, 0.0);
    EXPECT_EQ(r.fallback_decisions, 0u);
    EXPECT_EQ(r.watchdog_trips, 0u);
  }
  if (r.fallback_decisions > 0 || r.violation_time > 0.0) {
    EXPECT_NE(r.status, core::ControlStatus::kOk);
  }
  if (!r.runaway) {
    ASSERT_FALSE(r.samples.empty());
    for (const core::DtmSample& s : r.samples) {
      EXPECT_FALSE(std::isnan(s.max_chip_temperature));
      if (s.tier != core::ControllerTier::kPrimary) {
        EXPECT_GT(r.fallback_decisions, 0u);
      }
    }
  }
}

TEST_F(ChaosSolverTest, DtmLoopHeavyFaultsFallBackInsteadOfCrashing) {
  const workload::PowerTrace trace = chaos_trace();
  core::DtmOptions opts;
  opts.policy = core::DtmPolicy::kExactOftec;
  opts.system = coarse_config();
  opts.control_period = 1.0;
  opts.time_step = 25e-3;
  opts.fallback_grid_points = 4;  // keep the tier-3 sweep cheap

  // Primary controller fails most of the time: the chain must degrade
  // through LUT-less tiers down to grid search / fail-safe, not throw.
  (void)fault::arm("solve_engine.nonconverge", 0.7, 99);

  const core::DtmResult r = run_dtm_loop(fp(), trace, leakage(), opts);
  if (!r.runaway) {
    EXPECT_FALSE(r.samples.empty());
  }
  // With a 70 % failure rate the run cannot have been pristine.
  EXPECT_TRUE(r.runaway || r.fallback_decisions > 0 ||
              r.status != core::ControlStatus::kOk);
}

}  // namespace
}  // namespace oftec
