// Batched SolveEngine vs its serial reference path — exact equality.
//
// Every engine solve is a pure function of (ω, I_TEC): fixed initial guess,
// no cross-point warm-start chaining, bit-exact factor-cache keys. So the
// batched result vector must match solve_serial() with tolerance ZERO — on
// every field, at every thread count, including the full node-temperature
// vectors. Any drift means scheduling leaked into the arithmetic.
//
// The engine is also the only steady path: SteadySolver::solve must be the
// engine bit for bit, and both engine paths must agree with the Newton
// oracle (the seed solver's loop, newton_oracle.h) to 1e-3 K.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "floorplan/ev6.h"
#include "newton_oracle.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "thermal/steady.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

/// 8×8 grid (the core-test resolution) keeps the 16-point sweep fast while
/// exercising the same assembly/solve paths as the 10×10 deployment grid.
const ThermalModel& model() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              8, 8);
  return m;
}

const SteadySolver& solver() {
  static const power::LeakageModel leakage =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  static const SteadySolver s(
      model(),
      model().distribute(workload::peak_power_map(
          workload::profile_for(workload::Benchmark::kQuicksort), fp())),
      model().cell_leakage(leakage), SteadyOptions{});
  return s;
}

/// 4×4 (I_TEC, ω) grid spanning runaway (ω = 0 column) through overdriven.
std::vector<OperatingPoint> grid16() {
  std::vector<OperatingPoint> pts;
  const double omega_max = model().config().fan.max_speed;
  const double current_max = model().config().tec.max_current;
  for (std::size_t ci = 0; ci < 4; ++ci) {
    for (std::size_t wi = 0; wi < 4; ++wi) {
      pts.push_back({omega_max * static_cast<double>(wi) / 3.0,
                     current_max * static_cast<double>(ci) / 3.0});
    }
  }
  return pts;
}

void expect_identical(const SteadyResult& a, const SteadyResult& b,
                      std::size_t i) {
  ASSERT_EQ(a.converged, b.converged) << "point " << i;
  ASSERT_EQ(a.runaway, b.runaway) << "point " << i;
  ASSERT_EQ(a.iterations, b.iterations) << "point " << i;
  ASSERT_EQ(a.max_chip_temperature, b.max_chip_temperature) << "point " << i;
  ASSERT_EQ(a.leakage_power, b.leakage_power) << "point " << i;
  ASSERT_EQ(a.tec_power, b.tec_power) << "point " << i;
  ASSERT_EQ(a.temperatures.size(), b.temperatures.size()) << "point " << i;
  for (std::size_t j = 0; j < a.temperatures.size(); ++j) {
    ASSERT_EQ(a.temperatures[j], b.temperatures[j])
        << "point " << i << " node " << j;
  }
  ASSERT_EQ(a.chip_temperatures.size(), b.chip_temperatures.size());
  for (std::size_t j = 0; j < a.chip_temperatures.size(); ++j) {
    ASSERT_EQ(a.chip_temperatures[j], b.chip_temperatures[j])
        << "point " << i << " cell " << j;
  }
}

class BatchedVsSerialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedVsSerialTest, BatchBitIdenticalToSerialReference) {
  const SolveEngine engine(solver());
  const std::vector<OperatingPoint> pts = grid16();

  const std::vector<SteadyResult> serial = engine.solve_serial(pts);
  util::ThreadPool pool(GetParam());
  const std::vector<SteadyResult> batch = engine.solve_batch(pts, pool);

  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(serial[i], batch[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchedVsSerialTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(BatchedVsSerial, RepeatedBatchesAreIdenticalDespiteCacheState) {
  // A second pass re-runs with a warm factor cache; cache hits must return
  // factors of identical matrices, so results cannot move.
  const SolveEngine engine(solver());
  const std::vector<OperatingPoint> pts = grid16();

  util::ThreadPool pool(4);
  const std::vector<SteadyResult> first = engine.solve_batch(pts, pool);
  const std::vector<SteadyResult> second = engine.solve_batch(pts, pool);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(first[i], second[i], i);
  }
  EXPECT_EQ(engine.stats().points, 2 * pts.size());
}

TEST(EngineFactorCache, HoldsExactlyCapacityEntriesInLruOrder) {
  // Under the chord leakage line a point is one linear solve, hence one
  // factor key. A direct-only engine with capacity 2 keeps the two most
  // recently used factors and no more.
  SteadyOptions chord;
  chord.mode = LeakageMode::kChordLinear;
  const SteadySolver chord_solver(model(), solver().cell_dynamic_power(),
                                  solver().cell_leakage(), chord);
  EngineOptions options;
  options.use_iterative = false;
  options.factor_cache_capacity = 2;
  const SolveEngine engine(chord_solver, options);

  const double omega_max = model().config().fan.max_speed;
  const OperatingPoint p1{0.5 * omega_max, 0.0};
  const OperatingPoint p2{0.7 * omega_max, 0.0};
  const OperatingPoint p3{0.9 * omega_max, 0.0};
  const SteadyResult first = engine.solve(p1);
  ASSERT_TRUE(first.converged);
  (void)engine.solve(p2);
  (void)engine.solve(p3);
  EXPECT_EQ(engine.stats().factorizations, 3u);
  EXPECT_EQ(engine.stats().factor_hits, 0u);

  // p1 is the least recently used of three: evicted, so a miss.
  expect_identical(first, engine.solve(p1), 0);
  EXPECT_EQ(engine.stats().factorizations, 4u);
  EXPECT_EQ(engine.stats().factor_hits, 0u);

  // The cache now holds p1 and p3 (p2 went): both hit.
  (void)engine.solve(p3);
  expect_identical(first, engine.solve(p1), 0);
  EXPECT_EQ(engine.stats().factorizations, 4u);
  EXPECT_EQ(engine.stats().factor_hits, 2u);
}

TEST(BatchedVsSerial, SolveMatchesSerialElementwise) {
  // Single-point solve() is the same code path as each serial element.
  const SolveEngine engine(solver());
  const std::vector<OperatingPoint> pts = grid16();
  const std::vector<SteadyResult> serial = engine.solve_serial(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(serial[i], engine.solve(pts[i]), i);
  }
}

TEST(BatchedVsSerial, SteadySolverSolveIsTheEngine) {
  // The binding's one-shot solve runs a default-options engine over itself.
  const SolveEngine engine(solver());
  const std::vector<OperatingPoint> pts = grid16();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect_identical(engine.solve(pts[i]),
                     solver().solve(pts[i].omega, pts[i].current), i);
  }
}

TEST(BatchedVsSerial, MatchesSeedSteadySolverToTolerance) {
  // Against the Newton oracle the engine is not bit-identical (different
  // Newton linearization schedule and linear solvers) but both of its paths
  // — warm CG and direct-only — must agree physically: same runaway verdict
  // everywhere, temperatures within 1e-3 K of the oracle and 1e-4 K of each
  // other on converged points.
  const SolveEngine iterative(solver());
  EngineOptions direct_only;
  direct_only.use_iterative = false;
  const SolveEngine direct(solver(), direct_only);
  for (const OperatingPoint& pt : grid16()) {
    const SteadyResult seed =
        testing::newton_oracle(solver(), pt.omega, pt.current);
    const SteadyResult by_cg = iterative.solve(pt);
    const SteadyResult by_factor = direct.solve(pt);
    for (const SteadyResult* fast : {&by_cg, &by_factor}) {
      ASSERT_EQ(seed.runaway, fast->runaway)
          << "omega=" << pt.omega << " I=" << pt.current;
      if (!seed.runaway && seed.converged) {
        EXPECT_NEAR(seed.max_chip_temperature, fast->max_chip_temperature,
                    1e-3);
        EXPECT_NEAR(seed.tec_power, fast->tec_power, 1e-3);
      }
    }
    if (by_cg.converged && by_factor.converged) {
      EXPECT_NEAR(by_cg.max_chip_temperature, by_factor.max_chip_temperature,
                  1e-4);
      EXPECT_NEAR(by_cg.leakage_power, by_factor.leakage_power, 1e-4);
    }
  }
}

}  // namespace
}  // namespace oftec::thermal
