#include "core/oftec.h"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/grid_search.h"
#include "test_fixtures.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::make_system;

TEST(Oftec, LightBenchmarkSkipsOpt2) {
  // Basicmath is coolable from the (ω_max/2, I_max/2) start, so the
  // feasibility bootstrap must not run.
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_FALSE(r.used_opt2);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
}

TEST(Oftec, HeavyBenchmarkUsesOpt2) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.used_opt2);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
  EXPECT_LT(r.opt2_temperature, sys.t_max());
}

TEST(Oftec, SolutionRespectsPhysicalBounds) {
  const CoolingSystem sys = make_system(workload::Benchmark::kSusan);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.omega, 0.0);
  EXPECT_LE(r.omega, sys.omega_max() + 1e-9);
  EXPECT_GE(r.current, 0.0);
  EXPECT_LE(r.current, sys.current_max() + 1e-9);
}

TEST(Oftec, Opt1PowerNotAboveOpt2Power) {
  // Optimization 1 minimizes power from the Optimization 2 point, so it can
  // only improve (or match) the cooling power.
  const CoolingSystem sys = make_system(workload::Benchmark::kBitCount);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_LE(r.power.total(), r.opt2_power.total() + 1e-6);
}

TEST(Oftec, Opt1TradesTemperatureForPower) {
  // The paper's Fig. 6(e) observation: OFTEC "slightly increases the
  // temperature in order to reduce the cooling power consumption".
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.max_chip_temperature, r.opt2_temperature - 1e-6);
}

TEST(Oftec, ReportsRuntimeAndSolves) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.runtime_ms, 0.0);
  EXPECT_GT(r.thermal_solves, 5u);
}

TEST(Oftec, FanOnlyVariantWorksOnLightLoad) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kCrc32, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.current, 0.0);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
}

TEST(Oftec, FanOnlyVariantFailsOnHeavyLoad) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kQuicksort, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  EXPECT_FALSE(r.success);
  // Even the best fan setting exceeds T_max.
  EXPECT_GT(r.opt2_temperature, sys.t_max());
}

TEST(Oftec, InfeasibleHybridStillReportsOpt2Power) {
  // An overload even OFTEC cannot cool: the failure report must carry the
  // best-effort (Optimization 2) operating point and its finite power.
  power::PowerMap overload =
      testing::benchmark_power(workload::Benchmark::kQuicksort);
  overload.scale(1.6);
  const CoolingSystem sys(testing::fp(), overload, testing::leakage(),
                          testing::coarse_config());
  const OftecResult r = run_oftec(sys);
  ASSERT_FALSE(r.success);
  EXPECT_TRUE(r.used_opt2);
  EXPECT_GT(r.opt2_temperature, sys.t_max());
  EXPECT_TRUE(std::isfinite(r.opt2_temperature));
  EXPECT_GT(r.opt2_power.total(), 0.0);
  EXPECT_GT(r.runtime_ms, 0.0);
}

TEST(Oftec, InfeasibleReportCarriesBestEffort) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kBitCount, /*with_tec=*/false);
  const OftecResult r = run_oftec(sys);
  ASSERT_FALSE(r.success);
  EXPECT_TRUE(std::isfinite(r.opt2_temperature));
  EXPECT_GT(r.opt2_omega, 0.0);
}

TEST(Oftec, GridSearchEngineAgreesWithSqp) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  OftecOptions sqp_opts;
  OftecOptions grid_opts;
  grid_opts.solver = [](const opt::Problem& p, const la::Vector&,
                        const opt::StopPredicate&) {
    return opt::solve_grid_search(p, 15);
  };
  const OftecResult rs = run_oftec(sys, sqp_opts);
  const OftecResult rg = run_oftec(sys, grid_opts);
  ASSERT_TRUE(rs.success);
  ASSERT_TRUE(rg.success);
  // SQP should be at least as good as a coarse grid (minor non-convexity).
  EXPECT_LE(rs.power.total(), rg.power.total() * 1.05);
}

TEST(MinTemperature, FindsCoolerPointThanOpt1) {
  // Optimization 2 minimizes 𝒯 with no power concern, so its temperature
  // can only be at or below the Optimization 1 solution's.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const MinTemperatureResult t = run_min_temperature(sys);
  const OftecResult p = run_oftec(sys);
  ASSERT_TRUE(t.finite);
  ASSERT_TRUE(p.success);
  EXPECT_LE(t.max_chip_temperature, p.max_chip_temperature + 1e-6);
}

TEST(MinTemperature, SpendsMorePowerThanOpt1) {
  // The Fig. 6(d) vs 6(f) relationship.
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const MinTemperatureResult t = run_min_temperature(sys);
  const OftecResult p = run_oftec(sys);
  ASSERT_TRUE(t.finite);
  ASSERT_TRUE(p.success);
  EXPECT_GE(t.power.total(), p.power.total() - 1e-6);
}

TEST(MinTemperature, PushesFanHard) {
  // 𝒯 decreases monotonically with ω in this model, so the minimizer runs
  // the fan at (or very near) full speed.
  const CoolingSystem sys = make_system(workload::Benchmark::kBitCount);
  const MinTemperatureResult t = run_min_temperature(sys);
  ASSERT_TRUE(t.finite);
  EXPECT_GT(t.omega, 0.8 * sys.omega_max());
}

TEST(MinTemperature, WorksOnFanOnlySystems) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kCrc32, /*with_tec=*/false);
  const MinTemperatureResult t = run_min_temperature(sys);
  ASSERT_TRUE(t.finite);
  EXPECT_DOUBLE_EQ(t.current, 0.0);
  EXPECT_LT(t.max_chip_temperature, sys.t_max());
}

TEST(Oftec, SolutionBeatsNaiveFullPower) {
  // Running everything flat out is feasible for a light benchmark but
  // wasteful; OFTEC must find something strictly cheaper.
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  const Evaluation& flat_out = sys.evaluate(sys.omega_max(), 1.0);
  ASSERT_FALSE(flat_out.runaway);
  EXPECT_LT(r.power.total(), flat_out.cooling_power());
}

}  // namespace
}  // namespace oftec::core
