// SolveEngine's runaway certificate (docs/solver.md, "Runaway certificate").
//
// A Newton iterate reached through an SPD matrix lies below every steady
// state, so a matrix linearized there that is proven not SPD means no
// steady state exists. The engine then returns kRunaway at once:
//   - a point that the direct path declares runaway through pivoted LU is
//     now certified without a single factorization or direct fallback;
//   - the proof is explicit (a non-positive column pivot, or CG's
//     IterativeResult::indefinite) — CG stalls injected over a feasible
//     sweep never turn into a runaway verdict;
//   - the first linearization is not a proven bound, so a matrix that is
//     not SPD there still takes the direct path.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "thermal/steady.h"
#include "util/fault.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const power::LeakageModel& leakage() {
  static const power::LeakageModel l =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return l;
}

/// The 8×8 model with one benchmark's peak power.
struct Stack {
  explicit Stack(workload::Benchmark b)
      : model(package::PackageConfig::paper_default(), fp(), 8, 8),
        solver(model,
               model.distribute(
                   workload::peak_power_map(workload::profile_for(b), fp())),
               model.cell_leakage(leakage())) {}

  ThermalModel model;
  SteadySolver solver;
};

EngineOptions direct_only() {
  EngineOptions options;
  options.use_iterative = false;
  return options;
}

TEST(EngineCertificate, LuRunawayPointIsCertifiedWithoutFactorizing) {
  const Stack stack(workload::Benchmark::kQuicksort);
  const OperatingPoint point{
      0.02 * stack.model.config().fan.max_speed,
      0.5 * stack.model.config().tec.max_current};

  // The direct path reaches its runaway verdict through pivoted LU.
  const SolveEngine direct(stack.solver, direct_only());
  const SteadyResult by_lu = direct.solve(point);
  ASSERT_EQ(by_lu.status, SolveStatus::kRunaway);
  ASSERT_GT(direct.stats().lu_fallbacks, 0u);

  const SolveEngine engine(stack.solver);
  const SteadyResult r = engine.solve(point);
  EXPECT_EQ(r.status, SolveStatus::kRunaway);
  EXPECT_TRUE(r.runaway);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.runaway_certificates, 1u);
  EXPECT_EQ(s.factorizations, 0u);
  EXPECT_EQ(s.direct_fallbacks, 0u);
}

TEST(EngineCertificate, CgStallsOverAFeasibleSweepAreNeverRunaway) {
  const Stack stack(workload::Benchmark::kSusan);
  const SolveEngine engine(stack.solver);
  const double omega_max = stack.model.config().fan.max_speed;
  const double current_max = stack.model.config().tec.max_current;
  std::vector<OperatingPoint> points;
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      points.push_back({omega_max * (0.24 + 0.04 * static_cast<double>(i)),
                        current_max * 0.05 * static_cast<double>(j)});
    }
  }
  for (const OperatingPoint& p : points) {
    ASSERT_EQ(engine.solve(p).status, SolveStatus::kOk)
        << "sweep must be feasible: " << p.omega << ", " << p.current;
  }

  fault::disarm_all();
  fault::reset_counters();
  (void)fault::arm("la.cg_stall", 0.1, 103);
  std::size_t runaway = 0;
  for (const OperatingPoint& p : points) {
    if (engine.solve(p).status == SolveStatus::kRunaway) ++runaway;
  }
  const std::size_t stalls = fault::fires("la.cg_stall");
  fault::disarm_all();
  fault::reset_counters();
  // ≈4 CG solves per point, one at T0: most stalls land on bound iterates.
  EXPECT_GT(stalls, 100u);
  EXPECT_EQ(runaway, 0u);
  EXPECT_EQ(engine.stats().runaway_certificates, 0u);
}

TEST(EngineCertificate, NotSpdAtTheFirstLinearizationTakesTheDirectPath) {
  // Leakage steep enough (0.5 W/K per cell at T0) that the very first
  // Newton matrix is not SPD. T0 is a guess, not a bound: no certificate.
  const ThermalModel model(package::PackageConfig::paper_default(), fp(), 8,
                           8);
  const std::vector<power::ExponentialTerm> steep(
      model.layout().cells_per_layer(),
      {1.0, 0.5, model.config().ambient + 10.0});
  const SteadySolver solver(
      model,
      model.distribute(workload::peak_power_map(
          workload::profile_for(workload::Benchmark::kQuicksort), fp())),
      steep);
  const SolveEngine engine(solver);
  const SteadyResult r =
      engine.solve({0.6 * model.config().fan.max_speed,
                    0.5 * model.config().tec.max_current});
  EXPECT_TRUE(r.runaway);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.runaway_certificates, 0u);
  EXPECT_GE(s.direct_fallbacks, 1u);
  EXPECT_EQ(s.lu_fallbacks, s.factorizations);  // every matrix not SPD
}

}  // namespace
}  // namespace oftec::thermal
