// Exact (ω, I) sensitivities against an independent oracle: central
// differences of the evaluated 𝒯 and 𝒫 themselves.
//
// CoolingSystem::gradient chains one implicit-function-theorem solve per
// parameter (thermal::SolveEngine::tangents) through the hottest cell, the
// leakage tangent slopes, the Eq. 3 TEC power and the fan's cubic law. The
// differences below only ever call evaluate(), so they share none of that
// code. With the Newton loop tightened to 1e-10 K and the polish to 1e-12,
// the two agree to 1e-5 relative on Basicmath, Quicksort and BitCount at
// interior points, at I = 0, and on a fan-only package.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cooling_system.h"
#include "core/multizone.h"
#include "core/oftec.h"
#include "core/problems.h"
#include "test_fixtures.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;

constexpr double kRelTol = 1e-5;

CoolingSystem::Config tight_config(bool with_tec = true) {
  CoolingSystem::Config cfg = coarse_config(with_tec);
  cfg.steady.tolerance = 1e-10;
  cfg.steady.iterative_tolerance = 1e-12;
  return cfg;
}

struct Values {
  double temperature;
  double power;
};

Values values_at(const CoolingSystem& system, double omega, double current) {
  const Evaluation& ev = system.evaluate(omega, current);
  EXPECT_FALSE(ev.runaway) << "omega=" << omega << " current=" << current;
  return {ev.max_chip_temperature, ev.cooling_power()};
}

/// Difference quotient of 𝒯 and 𝒫 along one parameter: central, or the
/// second-order one-sided (−3f₀ + 4f₁ − f₂)/2h when `one_sided`.
Values difference(const CoolingSystem& system, double omega, double current,
                  bool along_omega, double h, bool one_sided) {
  const auto at = [&](double s) {
    return along_omega ? values_at(system, omega + s, current)
                       : values_at(system, omega, current + s);
  };
  if (one_sided) {
    const Values f0 = at(0.0), f1 = at(h), f2 = at(2.0 * h);
    return {(-3.0 * f0.temperature + 4.0 * f1.temperature - f2.temperature) /
                (2.0 * h),
            (-3.0 * f0.power + 4.0 * f1.power - f2.power) / (2.0 * h)};
  }
  const Values fp_ = at(h), fm = at(-h);
  return {(fp_.temperature - fm.temperature) / (2.0 * h),
          (fp_.power - fm.power) / (2.0 * h)};
}

void expect_close(double exact, double oracle, const std::string& what) {
  ASSERT_TRUE(std::isfinite(exact)) << what;
  EXPECT_LE(std::abs(exact - oracle), kRelTol * std::abs(oracle))
      << what << ": exact=" << exact << " differences=" << oracle;
}

/// Check every entry of CoolingSystem::gradient at (ω, I).
void check_point(const CoolingSystem& system, double omega, double current,
                 const std::string& label) {
  const EvaluationGradient g = system.gradient(omega, current);
  const std::size_t params = system.has_tec() ? 2 : 1;
  ASSERT_EQ(g.max_chip_temperature.size(), params) << label;
  ASSERT_EQ(g.cooling_power.size(), params) << label;

  const Values d_omega = difference(system, omega, current, true,
                                    1e-4 * system.omega_max(), false);
  expect_close(g.max_chip_temperature[0], d_omega.temperature,
               label + " dT/domega");
  expect_close(g.cooling_power[0], d_omega.power, label + " dP/domega");
  if (params == 1) return;

  const Values d_current = difference(system, omega, current, false,
                                      1e-4 * system.current_max(),
                                      /*one_sided=*/current == 0.0);
  expect_close(g.max_chip_temperature[1], d_current.temperature,
               label + " dT/dI");
  expect_close(g.cooling_power[1], d_current.power, label + " dP/dI");
}

class SensitivityOracle
    : public ::testing::TestWithParam<workload::Benchmark> {};

TEST_P(SensitivityOracle, InteriorPointsMatchCentralDifferences) {
  const CoolingSystem system(fp(), benchmark_power(GetParam()), leakage(),
                             tight_config());
  const std::string name = workload::benchmark_name(GetParam());
  check_point(system, 0.45 * system.omega_max(), 0.3 * system.current_max(),
              name + " (0.45, 0.3)");
  check_point(system, 0.7 * system.omega_max(), 0.6 * system.current_max(),
              name + " (0.7, 0.6)");
}

TEST_P(SensitivityOracle, ZeroCurrentKeepsThePeltierTerm) {
  // At I = 0 the TEC draws no power, yet raising the current costs
  // α·(T_h − T_c) per cell at once: the right derivative of 𝒫 keeps it.
  const CoolingSystem system(fp(), benchmark_power(GetParam()), leakage(),
                             tight_config());
  const double omega = 0.6 * system.omega_max();
  ASSERT_EQ(system.evaluate(omega, 0.0).power.tec, 0.0);
  check_point(system, omega, 0.0,
              workload::benchmark_name(GetParam()) + " at I = 0");
}

TEST_P(SensitivityOracle, FanOnlyPackageHasOneEntry) {
  const CoolingSystem system(fp(), benchmark_power(GetParam()), leakage(),
                             tight_config(/*with_tec=*/false));
  check_point(system, 0.8 * system.omega_max(), 0.0,
              workload::benchmark_name(GetParam()) + " fan-only");
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, SensitivityOracle,
    ::testing::Values(workload::Benchmark::kBasicmath,
                      workload::Benchmark::kQuicksort,
                      workload::Benchmark::kBitCount),
    [](const ::testing::TestParamInfo<workload::Benchmark>& info) {
      return workload::benchmark_name(info.param);
    });

TEST(Sensitivities, GradientsComeFromTheRingWithoutNewSolves) {
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const double omega = 0.5 * system.omega_max();
  const double current = 0.5 * system.current_max();
  (void)system.evaluate(omega, current);
  const std::size_t solves = system.evaluation_count();
  (void)system.gradient(omega, current);
  EXPECT_EQ(system.evaluation_count(), solves);
  EXPECT_EQ(system.engine().stats().sensitivity_solves, 2u);
  EXPECT_EQ(system.gradient_stats().state_hits, 1u);
}

TEST(Sensitivities, GradientIsMemoizedWithItsEvaluation) {
  // Once taken, a point's gradient lives in its memo entry: pushing its
  // state out of the ring costs a later request nothing.
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const double omega = 0.5 * system.omega_max();
  const double current = 0.5 * system.current_max();
  (void)system.evaluate(omega, current);
  const EvaluationGradient first = system.gradient(omega, current);
  for (std::size_t k = 1; k <= PointMemo::kStates; ++k) {
    (void)system.evaluate(omega,
                          current * (1.0 - 0.05 * static_cast<double>(k)));
  }
  const std::size_t solves = system.evaluation_count();
  const std::size_t tangent_solves = system.engine().stats().sensitivity_solves;
  const EvaluationGradient again = system.gradient(omega, current);
  EXPECT_EQ(system.evaluation_count(), solves);
  EXPECT_EQ(system.engine().stats().sensitivity_solves, tangent_solves);
  EXPECT_EQ(system.gradient_stats().memo_hits, 1u);
  EXPECT_EQ(again.cooling_power, first.cooling_power);
  EXPECT_EQ(again.max_chip_temperature, first.max_chip_temperature);
}

TEST(Sensitivities, EvictedStateIsResolvedBitIdentically) {
  const CoolingSystem reference =
      testing::make_system(workload::Benchmark::kFft);
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const double omega = 0.5 * system.omega_max();
  const double current = 0.5 * system.current_max();
  (void)reference.evaluate(omega, current);
  const EvaluationGradient want = reference.gradient(omega, current);
  // Evaluate, then push the state out of the ring before any gradient.
  (void)system.evaluate(omega, current);
  for (std::size_t k = 1; k <= PointMemo::kStates; ++k) {
    (void)system.evaluate(omega,
                          current * (1.0 - 0.05 * static_cast<double>(k)));
  }
  const std::size_t solves = system.evaluation_count();
  const EvaluationGradient got = system.gradient(omega, current);
  EXPECT_EQ(system.evaluation_count(), solves + 1);
  EXPECT_EQ(system.gradient_stats().resolves, 1u);
  EXPECT_EQ(got.cooling_power, want.cooling_power);
  EXPECT_EQ(got.max_chip_temperature, want.max_chip_temperature);
}

TEST(Sensitivities, GradientWithoutEvaluationMemoizesThePoint) {
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const double omega = 0.5 * system.omega_max();
  const double current = 0.5 * system.current_max();
  (void)system.gradient(omega, current);
  EXPECT_EQ(system.evaluation_count(), 1u);
  (void)system.evaluate(omega, current);
  EXPECT_EQ(system.evaluation_count(), 1u);
  EXPECT_EQ(system.cache_hits(), 1u);
}

TEST(Sensitivities, RepeatedOftecOnAWarmSystemSolvesNothing) {
  // Algorithm 1 re-run on the same system (a repeated control request, a
  // shared-system Pareto sweep) finds every Evaluation and every gradient
  // in the memo.
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const OftecResult first = run_oftec(system);
  ASSERT_TRUE(first.success);
  const thermal::EngineStats before = system.engine().stats();
  const OftecResult again = run_oftec(system);
  EXPECT_EQ(again.thermal_solves, 0u);
  EXPECT_EQ(system.engine().stats().points, before.points);
  EXPECT_EQ(system.engine().stats().sensitivity_solves,
            before.sensitivity_solves);
  EXPECT_EQ(again.omega, first.omega);
  EXPECT_EQ(again.current, first.current);
  EXPECT_EQ(again.power.total(), first.power.total());
}

TEST(Sensitivities, ConcurrentGradientsMatchSerial) {
  // Threads sharing one system race on the memo and the state ring; every
  // gradient must still be the serial one, bit for bit.
  const CoolingSystem shared = testing::make_system(workload::Benchmark::kFft);
  const CoolingSystem serial = testing::make_system(workload::Benchmark::kFft);
  std::vector<std::pair<double, double>> points;
  for (std::size_t k = 0; k < 12; ++k) {
    points.emplace_back(shared.omega_max() * (0.4 + 0.02 * k),
                        shared.current_max() * (0.2 + 0.01 * (k % 3)));
  }
  std::vector<EvaluationGradient> results(4 * points.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < points.size(); ++k) {
        const auto [omega, current] = points[(k + 3 * t) % points.size()];
        (void)shared.evaluate(omega, current);
        results[t * points.size() + (k + 3 * t) % points.size()] =
            shared.gradient(omega, current);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < points.size(); ++k) {
    (void)serial.evaluate(points[k].first, points[k].second);
    const EvaluationGradient want =
        serial.gradient(points[k].first, points[k].second);
    for (std::size_t t = 0; t < 4; ++t) {
      const EvaluationGradient& got = results[t * points.size() + k];
      EXPECT_EQ(got.cooling_power, want.cooling_power) << k << " " << t;
      EXPECT_EQ(got.max_chip_temperature, want.max_chip_temperature)
          << k << " " << t;
    }
  }
}

TEST(Sensitivities, DirectTangentFallbackIsCountedApartFromNewton) {
  // With the iterative path off, every tangent solve takes the direct
  // fallback: one factorization per gradient, counted as sensitivity work
  // and kept out of the Newton factor counters and the factor cache.
  CoolingSystem::Config config = tight_config();
  config.engine.use_iterative = false;
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  const CoolingSystem direct(fp(), power, leakage(), config);
  const CoolingSystem iterative(fp(), power, leakage(), tight_config());
  const double omega = 0.6 * direct.omega_max();
  const double current = 0.5 * direct.current_max();
  (void)direct.evaluate(omega, current);
  const thermal::EngineStats before = direct.engine().stats();
  const EvaluationGradient got = direct.gradient(omega, current);
  const thermal::EngineStats after = direct.engine().stats();
  EXPECT_EQ(after.sensitivity_factorizations, 1u);
  EXPECT_EQ(after.sensitivity_cg_iterations, 0u);
  EXPECT_EQ(after.factorizations, before.factorizations);
  EXPECT_EQ(after.lu_fallbacks, before.lu_fallbacks);
  EXPECT_EQ(after.factor_hits, before.factor_hits);

  (void)iterative.evaluate(omega, current);
  const EvaluationGradient want = iterative.gradient(omega, current);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(got.cooling_power[k], want.cooling_power[k],
                1e-6 * std::abs(want.cooling_power[k]));
    EXPECT_NEAR(got.max_chip_temperature[k], want.max_chip_temperature[k],
                1e-6 * std::abs(want.max_chip_temperature[k]));
  }
}

TEST(Sensitivities, RunawayPointHasInfiniteGradient) {
  const CoolingSystem system =
      testing::make_system(workload::Benchmark::kQuicksort);
  ASSERT_TRUE(system.evaluate(0.0, 0.0).runaway);
  const EvaluationGradient g = system.gradient(0.0, 0.0);
  for (const double v : g.cooling_power) EXPECT_TRUE(std::isinf(v));
  for (const double v : g.max_chip_temperature) EXPECT_TRUE(std::isinf(v));
}

TEST(Sensitivities, ProblemGradientsFollowTheObjective) {
  const CoolingSystem system = testing::make_system(workload::Benchmark::kFft);
  const CoolingProblem opt1(system, CoolingProblem::Objective::kCoolingPower,
                            /*temperature_constraint=*/true);
  const CoolingProblem opt2(system,
                            CoolingProblem::Objective::kMaxTemperature,
                            /*temperature_constraint=*/false);
  const la::Vector x = opt1.midpoint();
  const EvaluationGradient g = system.gradient(x[0], x[1]);
  const opt::Gradients g1 = opt1.gradients(x);
  EXPECT_EQ(g1.objective, g.cooling_power);
  ASSERT_EQ(g1.constraints.size(), 1u);
  EXPECT_EQ(g1.constraints[0], g.max_chip_temperature);
  const opt::Gradients g2 = opt2.gradients(x);
  EXPECT_EQ(g2.objective, g.max_chip_temperature);
  EXPECT_TRUE(g2.constraints.empty());
}

TEST(Sensitivities, SingleZoneGradientMatchesScalarSystem) {
  // One zone covering the default coverage is the scalar current: same
  // state, same tangent solves, same gradient, bit for bit.
  const auto power = benchmark_power(workload::Benchmark::kFft);
  const CoolingSystem::Config config = tight_config();
  CoolingSystem::Config zoned = config;
  zoned.zones =
      ZonePartition::single_zone(fp(), config.grid_nx, config.grid_ny);
  const CoolingSystem multi(fp(), power, leakage(), zoned);
  const CoolingSystem scalar(fp(), power, leakage(), config);
  const double omega = 0.5 * scalar.omega_max();
  const double current = 0.4 * scalar.current_max();
  const EvaluationGradient gm = multi.gradient(omega, la::Vector{current});
  const EvaluationGradient gs = scalar.gradient(omega, current);
  ASSERT_EQ(gm.cooling_power.size(), 2u);
  EXPECT_EQ(gm.cooling_power, gs.cooling_power);
  EXPECT_EQ(gm.max_chip_temperature, gs.max_chip_temperature);
}

}  // namespace
}  // namespace oftec::core
