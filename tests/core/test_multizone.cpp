#include "core/multizone.h"

#include <gtest/gtest.h>

#include "floorplan/grid_map.h"
#include "test_fixtures.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;

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
  const ZonePartition part = ZonePartition::by_unit_cluster(fp(), 8, 8);
  const la::Vector cell_current = part.expand({1.0, 2.0, 3.0});
  for (std::size_t cell = 0; cell < part.zone_of_cell.size(); ++cell) {
    const std::size_t z = part.zone_of_cell[cell];
    if (z == ZonePartition::kUnzoned) {
      EXPECT_DOUBLE_EQ(cell_current[cell], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(cell_current[cell], static_cast<double>(z + 1));
    }
  }
  EXPECT_THROW((void)part.expand({1.0}), std::invalid_argument);
}

TEST(MultiZone, SingleZoneMatchesScalarSystem) {
  // With one zone the multi-zone machinery must reproduce CoolingSystem.
  const auto power = benchmark_power(workload::Benchmark::kFft);
  const auto config = coarse_config();
  const MultiZoneSystem multi(
      fp(), power, leakage(),
      ZonePartition::single_zone(fp(), config.grid_nx, config.grid_ny),
      config);
  const CoolingSystem scalar(fp(), power, leakage(), config);

  for (const double current : {0.0, 0.8, 2.0}) {
    const Evaluation& em = multi.evaluate(400.0, {current});
    const Evaluation& es = scalar.evaluate(400.0, current);
    ASSERT_EQ(em.runaway, es.runaway) << current;
    if (!em.runaway) {
      EXPECT_NEAR(em.max_chip_temperature, es.max_chip_temperature, 1e-6);
      EXPECT_NEAR(em.power.tec, es.power.tec, 1e-6);
    }
  }
}

TEST(MultiZone, EvaluationIsMemoized) {
  const auto config = coarse_config();
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kFft), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.0});
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.0});
  EXPECT_EQ(sys.evaluation_count(), solves);
  (void)sys.evaluate(400.0, {1.0, 0.5, 0.1});
  EXPECT_EQ(sys.evaluation_count(), solves + 1);
}

TEST(MultiZone, EngineOptionsReachTheEngine) {
  CoolingSystem::Config config = coarse_config();
  config.engine.use_iterative = false;
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kFft), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  ASSERT_FALSE(sys.evaluate(400.0, {1.0, 0.5, 0.0}).runaway);
  EXPECT_GT(sys.engine().stats().direct_fallbacks, 0u);
  EXPECT_EQ(sys.engine().stats().cg_iterations, 0u);
}

TEST(MultiZone, MemoNeverExceedsCacheLimit) {
  CoolingSystem::Config config = coarse_config();
  config.cache_limit = 3;
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kFft), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
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
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kBitCount), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  const la::Vector x = {300.0, 1.0, 0.8, 0.6};
  const MultiZoneProblem problem(
      sys, MultiZoneProblem::Objective::kCoolingPower, true);
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
  const auto config = coarse_config();
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kBitCount), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  const Evaluation& int_fed = sys.evaluate(450.0, {1.5, 0.0, 0.0});
  const Evaluation& fp_fed = sys.evaluate(450.0, {0.0, 1.5, 0.0});
  ASSERT_FALSE(int_fed.runaway);
  ASSERT_FALSE(fp_fed.runaway);
  EXPECT_LT(int_fed.max_chip_temperature, fp_fed.max_chip_temperature);
}

TEST(MultiZone, ProblemDimensions) {
  const auto config = coarse_config();
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kFft), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  const MultiZoneProblem p(sys, MultiZoneProblem::Objective::kCoolingPower,
                           true);
  EXPECT_EQ(p.dimension(), 4u);
  EXPECT_EQ(p.constraint_count(), 1u);
  EXPECT_DOUBLE_EQ(p.bounds().upper[0], sys.omega_max());
  EXPECT_DOUBLE_EQ(p.bounds().upper[3], sys.current_max());
  const la::Vector mid = p.midpoint();
  EXPECT_NEAR(mid[0], sys.omega_max() / 2.0, 1e-12);
  EXPECT_NEAR(mid[2], sys.current_max() / 2.0, 1e-12);
}

TEST(MultiZone, OftecSucceedsAndMeetsTmax) {
  const auto config = coarse_config();
  const MultiZoneSystem sys(
      fp(), benchmark_power(workload::Benchmark::kQuicksort), leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  const MultiZoneResult r = run_multizone_oftec(sys);
  ASSERT_TRUE(r.success);
  EXPECT_LT(r.max_chip_temperature, sys.t_max());
  ASSERT_EQ(r.zone_currents.size(), 3u);
  for (const double current : r.zone_currents) {
    EXPECT_GE(current, 0.0);
    EXPECT_LE(current, sys.current_max() + 1e-9);
  }
}

TEST(MultiZone, BeatsOrMatchesSingleCurrentOftec) {
  // Strictly more freedom cannot do worse (up to solver tolerance).
  const auto config = coarse_config();
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  const MultiZoneSystem multi(
      fp(), power, leakage(),
      ZonePartition::by_unit_cluster(fp(), config.grid_nx, config.grid_ny),
      config);
  const CoolingSystem scalar(fp(), power, leakage(), config);

  const MultiZoneResult rm = run_multizone_oftec(multi);
  const OftecResult rs = run_oftec(scalar);
  ASSERT_TRUE(rm.success);
  ASSERT_TRUE(rs.success);
  EXPECT_LE(rm.power.total(), rs.power.total() * 1.03);
}

}  // namespace
}  // namespace oftec::core
