#include "thermal/steady.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/solve_engine.h"
#include "util/units.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const ThermalModel& model() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              8, 8);
  return m;
}

/// The paper's 10×10 deployment grid.
const ThermalModel& model10() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              10, 10);
  return m;
}

const power::LeakageModel& leakage() {
  static const power::LeakageModel l =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return l;
}

/// Uniform power density over the die (hot spots in the cache region).
SteadySolver make_solver(double total_dynamic_watts,
                         SteadyOptions opts = {}) {
  power::PowerMap dyn(fp());
  for (std::size_t b = 0; b < fp().block_count(); ++b) {
    dyn.set(b, total_dynamic_watts * fp().blocks()[b].area() / fp().die_area());
  }
  return SteadySolver(model(), model().distribute(dyn),
                      model().cell_leakage(leakage()), opts);
}

/// Core-concentrated power (hot spots under the TEC-covered belt) — needed
/// whenever a test asserts that TEC current *reduces* the max temperature.
SteadySolver make_core_heavy_solver(double total_dynamic_watts,
                                    SteadyOptions opts = {}) {
  power::PowerMap dyn(fp());
  for (std::size_t b = 0; b < fp().block_count(); ++b) {
    dyn.set(b, 0.5 * total_dynamic_watts * fp().blocks()[b].area() /
                   fp().die_area());
  }
  dyn.add("IntExec", 0.3 * total_dynamic_watts);
  dyn.add("IntReg", 0.2 * total_dynamic_watts);
  return SteadySolver(model(), model().distribute(dyn),
                      model().cell_leakage(leakage()), opts);
}

TEST(Steady, ConvergesAtModerateLoad) {
  const SteadySolver solver = make_solver(30.0);
  const SteadyResult r = solver.solve(400.0, 0.0);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.runaway);
  EXPECT_GT(r.max_chip_temperature, model().config().ambient);
  EXPECT_LT(r.max_chip_temperature, units::celsius_to_kelvin(120.0));
  EXPECT_GT(r.leakage_power, 0.0);
  EXPECT_DOUBLE_EQ(r.tec_power, 0.0);
}

TEST(Steady, RunsAwayWithoutFan) {
  // ω = 0 leaves only natural convection (g = 0.525 W/K) — the paper's
  // TEC-only configuration cannot avoid thermal runaway.
  const SteadySolver solver = make_solver(35.0);
  for (double current : {0.0, 2.0, 5.0}) {
    const SteadyResult r = solver.solve(0.0, current);
    EXPECT_TRUE(r.runaway) << "I = " << current;
    EXPECT_TRUE(std::isinf(r.max_chip_temperature));
  }
}

TEST(Steady, FanSpeedMonotonicallyCools) {
  const SteadySolver solver = make_solver(32.0);
  double last = 1e9;
  for (double omega : {100.0, 200.0, 350.0, 524.0}) {
    const SteadyResult r = solver.solve(omega, 0.0);
    ASSERT_TRUE(r.converged) << omega;
    EXPECT_LT(r.max_chip_temperature, last);
    last = r.max_chip_temperature;
  }
}

TEST(Steady, ModerateTecCurrentCools) {
  const SteadySolver solver = make_core_heavy_solver(36.0);
  const SteadyResult off = solver.solve(450.0, 0.0);
  const SteadyResult on = solver.solve(450.0, 1.0);
  ASSERT_TRUE(off.converged);
  ASSERT_TRUE(on.converged);
  EXPECT_LT(on.max_chip_temperature, off.max_chip_temperature);
  EXPECT_GT(on.tec_power, 0.0);
}

TEST(Steady, ExcessiveCurrentHeats) {
  // Deep in the Joule-dominated regime the chip gets hotter, not cooler —
  // the non-monotonicity that makes Optimization 1 non-trivial. Use a
  // uniform load (hot cells uncovered): every ampere is pure overhead there.
  const SteadySolver solver = make_solver(30.0);
  const SteadyResult mild = solver.solve(450.0, 0.5);
  const SteadyResult harsh = solver.solve(450.0, 5.0);
  ASSERT_TRUE(mild.converged);
  ASSERT_TRUE(harsh.converged);
  EXPECT_GT(harsh.max_chip_temperature, mild.max_chip_temperature);
}

TEST(Steady, ColdSideColderThanHotSideUnderCurrent) {
  const SteadySolver solver = make_solver(30.0);
  const SteadyResult r = solver.solve(450.0, 2.0);
  ASSERT_TRUE(r.converged);
  // On TEC-covered cells the reject interface must be warmer than the
  // absorb interface (Peltier transport direction).
  const auto* arr = model().tec_array();
  ASSERT_NE(arr, nullptr);
  for (std::size_t c = 0; c < arr->cell_count(); ++c) {
    if (!arr->cell(c).covered) continue;
    EXPECT_GT(r.hot_side_temperatures[c], r.cold_side_temperatures[c]);
  }
}

TEST(Steady, ChordModeSolvesInOnePass) {
  SteadyOptions opts;
  opts.mode = LeakageMode::kChordLinear;
  const SteadySolver solver = make_solver(30.0, opts);
  const SteadyResult r = solver.solve(400.0, 0.0);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Steady, ChordApproximatesNewton) {
  SteadyOptions chord_opts;
  chord_opts.mode = LeakageMode::kChordLinear;
  const SteadySolver chord = make_solver(30.0, chord_opts);
  const SteadySolver newton = make_solver(30.0);
  const SteadyResult rc = chord.solve(450.0, 0.5);
  const SteadyResult rn = newton.solve(450.0, 0.5);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rn.converged);
  // The 10-point chord fit of Sec. 6.1 tracks the exact exponential to a
  // few kelvin at normal operating temperatures (it overestimates slightly
  // because the chord over-predicts mid-window leakage).
  EXPECT_NEAR(rc.max_chip_temperature, rn.max_chip_temperature, 3.0);
  EXPECT_GE(rc.max_chip_temperature, rn.max_chip_temperature);
}

TEST(Steady, ConstantModeUnderestimatesTemperature) {
  SteadyOptions const_opts;
  const_opts.mode = LeakageMode::kConstant;
  const SteadySolver constant = make_solver(36.0, const_opts);
  const SteadySolver newton = make_solver(36.0);
  const SteadyResult rc = constant.solve(400.0, 0.0);
  const SteadyResult rn = newton.solve(400.0, 0.0);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rn.converged);
  // Freezing leakage at its ambient value ignores the feedback and predicts
  // a cooler chip — the ablation the paper's Eq. (4) exists to fix.
  EXPECT_LT(rc.max_chip_temperature, rn.max_chip_temperature);
}

TEST(Steady, LeakagePowerIsExponentialAtSolution) {
  const SteadySolver solver = make_solver(30.0);
  const SteadyResult r = solver.solve(420.0, 0.0);
  ASSERT_TRUE(r.converged);
  double expected = 0.0;
  const auto& terms = solver.cell_leakage();
  for (std::size_t c = 0; c < terms.size(); ++c) {
    expected += terms[c].evaluate(r.chip_temperatures[c]);
  }
  EXPECT_NEAR(r.leakage_power, expected, 1e-9);
}

TEST(Steady, FirstLawBalanceWithTecActive) {
  // At a converged steady state, everything injected must leave to ambient:
  // dynamic + exact leakage + TEC electrical = Σ g_amb (T − T_amb).
  const SteadySolver solver = make_core_heavy_solver(34.0);
  const double omega = 430.0;
  const double current = 1.2;
  SteadyOptions tight = solver.options();
  tight.tolerance = 1e-6;  // push the outer Newton loop hard
  const SteadySolver precise(model(), solver.cell_dynamic_power(),
                             solver.cell_leakage(), tight);
  const SteadyResult r = precise.solve(omega, current);
  ASSERT_TRUE(r.converged);

  const double injected =
      la::sum(precise.cell_dynamic_power()) + r.leakage_power + r.tec_power;
  const double outflow = model().ambient_outflow(r.temperatures, omega);
  EXPECT_NEAR(outflow, injected, 1e-3 * injected);
}

TEST(Steady, IterativeAndDirectPathsAgree) {
  const SteadySolver solver = make_solver(33.0);
  EngineOptions direct_only;
  direct_only.use_iterative = false;
  const SteadyResult rd = SolveEngine(solver, direct_only).solve({420.0, 1.2});
  const SteadyResult ri = SolveEngine(solver).solve({420.0, 1.2});  // warm CG
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(ri.converged);
  EXPECT_NEAR(rd.max_chip_temperature, ri.max_chip_temperature, 1e-4);
  EXPECT_NEAR(rd.leakage_power, ri.leakage_power, 1e-4);
}

TEST(Steady, IterativePathDetectsRunawayToo) {
  const SteadySolver solver = make_solver(35.0);
  const SteadyResult r = solver.solve(0.0, 0.0);
  EXPECT_TRUE(r.runaway);
}

TEST(Steady, RejectsBadConstruction) {
  EXPECT_THROW(SteadySolver(model(), la::Vector(3, 0.0),
                            model().cell_leakage(leakage())),
               std::invalid_argument);
  la::Vector bad(model().layout().cells_per_layer(), 0.1);
  bad[0] = -1.0;
  EXPECT_THROW(SteadySolver(model(), bad, model().cell_leakage(leakage())),
               std::invalid_argument);
}

/// Property: on the 8×8 and the 10×10 grid, benchmark workloads all
/// converge at full fan with mild current and balance energy — dynamic +
/// exact leakage + TEC electrical power all leave to ambient.
class BenchmarkSteadyTest
    : public ::testing::TestWithParam<workload::Benchmark> {};

TEST_P(BenchmarkSteadyTest, ConvergesAtFullFan) {
  const auto& prof = workload::profile_for(GetParam());
  const power::PowerMap peak = workload::peak_power_map(prof, fp());
  const double omega = 524.0;
  for (const ThermalModel* m : {&model(), &model10()}) {
    SCOPED_TRACE(std::to_string(m->layout().nx()) + "x" +
                 std::to_string(m->layout().ny()));
    const SteadySolver solver(*m, m->distribute(peak),
                              m->cell_leakage(leakage()));
    const SteadyResult r = solver.solve(omega, 1.0);
    ASSERT_TRUE(r.converged) << prof.name;
    EXPECT_FALSE(r.runaway);
    EXPECT_GT(r.tec_power, 0.0);
    EXPECT_LT(r.max_chip_temperature, units::celsius_to_kelvin(120.0));
    const double injected =
        la::sum(solver.cell_dynamic_power()) + r.leakage_power + r.tec_power;
    EXPECT_NEAR(m->ambient_outflow(r.temperatures, omega), injected,
                1e-6 * injected);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkSteadyTest,
                         ::testing::ValuesIn(workload::all_benchmarks()),
                         [](const auto& info) {
                           return workload::benchmark_name(info.param);
                         });

}  // namespace
}  // namespace oftec::thermal
