#include "core/multizone.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/cooling_system.h"
#include "core/oftec.h"
#include "core/problems.h"
#include "floorplan/grid_map.h"
#include "test_fixtures.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;

/// `config` with the TEC array split into the int / fp / misc clusters.
CoolingSystem::Config cluster_config(CoolingSystem::Config config =
                                         coarse_config()) {
  config.zones =
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny);
  return config;
}

CoolingSystem::Config single_zone_config(CoolingSystem::Config config) {
  config.zones =
      ZonePartition::single_zone(fp(), config.grid_nx, config.grid_ny);
  return config;
}

void expect_same_bits(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.runaway, b.runaway);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.max_chip_temperature, b.max_chip_temperature);
  EXPECT_EQ(a.power.leakage, b.power.leakage);
  EXPECT_EQ(a.power.tec, b.power.tec);
  EXPECT_EQ(a.power.fan, b.power.fan);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
}

TEST(ZonePartition, ClusterPartitionCoversExactlyTheDefaultCoverage) {
  const ZonePartition part = ZonePartition::by_unit_cluster(fp(), 8, 8);
  const floorplan::GridMap grid(fp(), 8, 8);
  const std::vector<bool> covered = grid.tec_coverage();
  ASSERT_EQ(part.zone_of_cell.size(), covered.size());
  for (std::size_t cell = 0; cell < covered.size(); ++cell) {
    EXPECT_EQ(part.zone_of_cell[cell] != ZonePartition::kUnzoned,
              covered[cell])
        << "cell " << cell;
  }
  EXPECT_EQ(part.zone_count, 3u);
}

TEST(ZonePartition, EveryZoneIsNonEmptyOnEv6) {
  const ZonePartition part = ZonePartition::by_unit_cluster(fp(), 8, 8);
  std::vector<std::size_t> population(part.zone_count, 0);
  for (const std::size_t z : part.zone_of_cell) {
    if (z != ZonePartition::kUnzoned) ++population[z];
  }
  for (std::size_t z = 0; z < part.zone_count; ++z) {
    EXPECT_GT(population[z], 0u) << part.zone_names[z];
  }
}

TEST(ZonePartition, ExpandRoutesCurrentsByZone) {
  // The engine sees each zone's current on that zone's cells and none
  // elsewhere; the default single zone puts its current on every cell, as
  // SolveEngine::solve({ω, I}) does, so both share factor-cache keys.
  const CoolingSystem::Config config = cluster_config();
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), config);
  const la::Vector cell_current = sys.cell_currents({1.0, 2.0, 3.0});
  const ZonePartition& part = *config.zones;
  ASSERT_EQ(cell_current.size(), part.zone_of_cell.size());
  for (std::size_t cell = 0; cell < part.zone_of_cell.size(); ++cell) {
    const std::size_t z = part.zone_of_cell[cell];
    if (z == ZonePartition::kUnzoned) {
      EXPECT_EQ(cell_current[cell], 0.0);
    } else {
      EXPECT_EQ(cell_current[cell], static_cast<double>(z + 1));
    }
  }
  EXPECT_THROW((void)sys.cell_currents({1.0}), std::invalid_argument);

  const CoolingSystem scalar = testing::make_system(workload::Benchmark::kFft);
  EXPECT_EQ(scalar.cell_currents({0.7}),
            la::Vector(part.zone_of_cell.size(), 0.7));
}

TEST(MultiZone, SingleZoneMatchesScalarSystem) {
  // With one zone the partition must reproduce the default system bit for
  // bit: uncovered cells' currents are never read.
  const auto power = benchmark_power(workload::Benchmark::kFft);
  const auto config = coarse_config();
  const CoolingSystem multi(fp(), power, leakage(),
                            single_zone_config(config));
  const CoolingSystem scalar(fp(), power, leakage(), config);
  ASSERT_EQ(multi.zone_count(), 1u);

  for (const double current : {0.0, 0.8, 2.0}) {
    SCOPED_TRACE(current);
    expect_same_bits(multi.evaluate(400.0, la::Vector{current}),
                     scalar.evaluate(400.0, current));
  }
}

TEST(MultiZone, EvaluationIsMemoized) {
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cluster_config());
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.0});
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.0});
  EXPECT_EQ(sys.evaluation_count(), solves);
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.1});
  EXPECT_EQ(sys.evaluation_count(), solves + 1);
}

TEST(MultiZone, EngineOptionsReachTheEngine) {
  CoolingSystem::Config config = cluster_config();
  config.engine.use_iterative = false;
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), config);
  ASSERT_FALSE(sys.evaluate(400.0, {1.0, 0.5, 0.0}).runaway);
  EXPECT_GT(sys.engine().stats().direct_fallbacks, 0u);
  EXPECT_EQ(sys.engine().stats().cg_iterations, 0u);
}

TEST(MultiZone, MemoNeverExceedsCacheLimit) {
  CoolingSystem::Config config = cluster_config();
  config.cache_limit = 3;
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), config);
  for (std::size_t k = 0; k < 10; ++k) {
    (void)sys.evaluate(400.0, {0.2 * static_cast<double>(k), 0.5, 0.0});
    EXPECT_LE(sys.memo_size(), 3u);
  }
  EXPECT_EQ(sys.evaluation_count(), 10u);
}

TEST(MultiZone, ZoneGradientMatchesCentralDifferences) {
  CoolingSystem::Config config = coarse_config();
  config.steady.tolerance = 1e-10;
  config.steady.iterative_tolerance = 1e-12;
  const CoolingSystem sys(fp(),
                          benchmark_power(workload::Benchmark::kBitCount),
                          leakage(), cluster_config(config));
  const la::Vector x = {300.0, 1.0, 0.8, 0.6};
  const CoolingProblem problem(sys, CoolingProblem::Objective::kCoolingPower,
                               true);
  const opt::Gradients g = problem.gradients(x);
  ASSERT_EQ(g.objective.size(), 4u);
  ASSERT_EQ(g.constraints.size(), 1u);
  for (std::size_t k = 0; k < 4; ++k) {
    const double h = 1e-4 * problem.bounds().upper[k];
    la::Vector xp = x, xm = x;
    xp[k] += h;
    xm[k] -= h;
    const double d_power =
        (problem.objective(xp) - problem.objective(xm)) / (2.0 * h);
    const double d_temperature =
        (problem.constraints(xp)[0] - problem.constraints(xm)[0]) / (2.0 * h);
    EXPECT_NEAR(g.objective[k], d_power, 1e-5 * std::abs(d_power)) << k;
    EXPECT_NEAR(g.constraints[0][k], d_temperature,
                1e-5 * std::abs(d_temperature))
        << k;
  }
}

TEST(MultiZone, ZonedCurrentCoolsItsOwnCluster) {
  // Feeding only the integer zone must cool an integer-bound workload more
  // than feeding only the FP zone with the same current.
  const CoolingSystem sys(fp(),
                          benchmark_power(workload::Benchmark::kBitCount),
                          leakage(), cluster_config());
  const Evaluation& int_fed = sys.evaluate(450.0, {1.5, 0.0, 0.0});
  const Evaluation& fp_fed = sys.evaluate(450.0, {0.0, 1.5, 0.0});
  ASSERT_FALSE(int_fed.runaway);
  ASSERT_FALSE(fp_fed.runaway);
  EXPECT_LT(int_fed.max_chip_temperature, fp_fed.max_chip_temperature);
}

TEST(MultiZone, ProblemDimensions) {
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cluster_config());
  const CoolingProblem p(sys, CoolingProblem::Objective::kCoolingPower, true);
  EXPECT_EQ(p.dimension(), 4u);
  EXPECT_EQ(p.constraint_count(), 1u);
  EXPECT_DOUBLE_EQ(p.bounds().upper[0], sys.omega_max());
  EXPECT_DOUBLE_EQ(p.bounds().upper[3], sys.current_max());
  const la::Vector mid = p.midpoint();
  EXPECT_NEAR(mid[0], sys.omega_max() / 2.0, 1e-12);
  EXPECT_NEAR(mid[2], sys.current_max() / 2.0, 1e-12);
  EXPECT_EQ(p.currents_of(mid), la::Vector(mid.begin() + 1, mid.end()));
}

TEST(MultiZone, SingleCurrentFormsThrowOnSeveralZones) {
  // One current cannot stand for three: the single-current accessors throw
  // instead of answering for one zone.
  const CoolingSystem sys(fp(), benchmark_power(workload::Benchmark::kFft),
                          leakage(), cluster_config());
  EXPECT_THROW((void)sys.evaluate(400.0, 1.0), std::logic_error);
  EXPECT_THROW((void)sys.gradient(400.0, 1.0), std::logic_error);
  const CoolingProblem p(sys, CoolingProblem::Objective::kCoolingPower, true);
  EXPECT_THROW((void)p.current_of(p.midpoint()), std::logic_error);
  EXPECT_THROW((void)sys.evaluate(400.0, {1.0, 0.5}), std::invalid_argument);

  CoolingSystem::Config fan_only = cluster_config(coarse_config(false));
  EXPECT_THROW(CoolingSystem(fp(), benchmark_power(workload::Benchmark::kFft),
                             leakage(), fan_only),
               std::invalid_argument);
}

TEST(MultiZone, OftecSucceedsAndMeetsTmax) {
  const CoolingSystem sys(fp(),
                          benchmark_power(workload::Benchmark::kQuicksort),
                          leakage(), cluster_config());
  const OftecResult r = run_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
  ASSERT_EQ(r.zone_currents.size(), 3u);
  for (const double current : r.zone_currents) {
    EXPECT_GE(current, 0.0);
    EXPECT_LE(current, sys.current_max() + 1e-9);
  }
  EXPECT_TRUE(std::isnan(r.current));
  const Evaluation& at = sys.evaluate(r.omega, r.zone_currents);
  EXPECT_EQ(at.power.total(), r.power.total());
}

TEST(MultiZone, BeatsOrMatchesSingleCurrentOftec) {
  // Strictly more freedom cannot do worse (up to solver tolerance).
  const auto config = coarse_config();
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  const CoolingSystem multi(fp(), power, leakage(), cluster_config(config));
  const CoolingSystem scalar(fp(), power, leakage(), config);

  const OftecResult rm = run_oftec(multi);
  const OftecResult rs = run_oftec(scalar);
  ASSERT_TRUE(rm.success);
  ASSERT_TRUE(rs.success);
  EXPECT_LE(rm.power.total(), rs.power.total() * 1.03);
}

TEST(MultiZone, SingleZoneOftecIsBitIdenticalOnAllProfiles) {
  // Algorithm 1 over an explicit single-zone partition is the paper's
  // single-current run: same iterates, same solves, same bits.
  CoolingSystem::Config config;
  config.grid_nx = config.grid_ny = 10;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    SCOPED_TRACE(workload::benchmark_name(b));
    const auto power = benchmark_power(b);
    const CoolingSystem multi(fp(), power, leakage(),
                              single_zone_config(config));
    const CoolingSystem scalar(fp(), power, leakage(), config);
    const OftecResult rm = run_oftec(multi);
    const OftecResult rs = run_oftec(scalar);
    EXPECT_EQ(rm.success, rs.success);
    EXPECT_EQ(rm.omega, rs.omega);
    EXPECT_EQ(rm.current, rs.current);
    EXPECT_EQ(rm.zone_currents, rs.zone_currents);
    EXPECT_EQ(rm.max_chip_temperature, rs.max_chip_temperature);
    EXPECT_EQ(rm.power.leakage, rs.power.leakage);
    EXPECT_EQ(rm.power.tec, rs.power.tec);
    EXPECT_EQ(rm.power.fan, rs.power.fan);
    EXPECT_EQ(rm.thermal_solves, rs.thermal_solves);
  }
}

}  // namespace
}  // namespace oftec::core
