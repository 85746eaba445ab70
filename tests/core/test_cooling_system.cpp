#include "core/cooling_system.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_fixtures.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::coarse_config;
using testing::fp;
using testing::leakage;
using testing::make_system;

TEST(CoolingSystem, ReportsPaperEnvironment) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  EXPECT_NEAR(sys.t_max(), units::celsius_to_kelvin(90.0), 1e-9);
  EXPECT_NEAR(sys.ambient(), units::celsius_to_kelvin(45.0), 1e-9);
  EXPECT_NEAR(sys.omega_max(), 524.0, 1e-9);
  EXPECT_DOUBLE_EQ(sys.current_max(), 5.0);
  EXPECT_TRUE(sys.has_tec());
}

TEST(CoolingSystem, FanOnlySystemHasNoCurrentAxis) {
  const CoolingSystem sys =
      make_system(workload::Benchmark::kBasicmath, /*with_tec=*/false);
  EXPECT_FALSE(sys.has_tec());
  EXPECT_DOUBLE_EQ(sys.current_max(), 0.0);
  EXPECT_NO_THROW((void)sys.evaluate(300.0, 0.0));
  EXPECT_THROW((void)sys.evaluate(300.0, 1.0), std::invalid_argument);
}

TEST(CoolingSystem, EvaluationIsMemoized) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  (void)sys.evaluate(300.0, 1.0);
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(300.0, 1.0);
  (void)sys.evaluate(300.0, 1.0);
  EXPECT_EQ(sys.evaluation_count(), solves);
  EXPECT_GE(sys.cache_hits(), 2u);
}

TEST(CoolingSystem, MemoNeverExceedsCacheLimit) {
  CoolingSystem::Config config = testing::coarse_config();
  config.cache_limit = 3;
  const CoolingSystem sys(fp(), testing::benchmark_power(
                                    workload::Benchmark::kFft),
                          leakage(), config);
  for (std::size_t k = 0; k < 10; ++k) {
    (void)sys.evaluate(300.0, 0.2 * static_cast<double>(k));
    EXPECT_LE(sys.memo_size(), 3u);
  }
  EXPECT_EQ(sys.evaluation_count(), 10u);
}

TEST(CoolingSystem, DistinctPointsSolveSeparately) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  (void)sys.evaluate(300.0, 1.0);
  const std::size_t solves = sys.evaluation_count();
  (void)sys.evaluate(300.0, 1.1);
  EXPECT_EQ(sys.evaluation_count(), solves + 1);
}

TEST(CoolingSystem, BreakdownSumsToTotal) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const Evaluation& ev = sys.evaluate(450.0, 1.0);
  ASSERT_FALSE(ev.runaway);
  EXPECT_NEAR(ev.cooling_power(),
              ev.power.leakage + ev.power.tec + ev.power.fan, 1e-12);
  EXPECT_GT(ev.power.leakage, 0.0);
  EXPECT_GT(ev.power.tec, 0.0);
  EXPECT_GT(ev.power.fan, 0.0);
}

TEST(CoolingSystem, RunawayYieldsInfinities) {
  const CoolingSystem sys = make_system(workload::Benchmark::kQuicksort);
  const Evaluation& ev = sys.evaluate(0.0, 0.0);
  EXPECT_TRUE(ev.runaway);
  EXPECT_TRUE(std::isinf(ev.max_chip_temperature));
  EXPECT_TRUE(std::isinf(ev.cooling_power()));
}

TEST(CoolingSystem, RejectsOutOfRangeInputs) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  EXPECT_THROW((void)sys.evaluate(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(sys.omega_max() * 1.01, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(300.0, -0.5), std::invalid_argument);
  EXPECT_THROW((void)sys.evaluate(300.0, 5.5), std::invalid_argument);
}

TEST(CoolingSystem, ZeroCurrentHasNoTecPower) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const Evaluation& ev = sys.evaluate(400.0, 0.0);
  ASSERT_FALSE(ev.runaway);
  EXPECT_DOUBLE_EQ(ev.power.tec, 0.0);
}

TEST(CoolingSystem, FanPowerFollowsCubicLaw) {
  const CoolingSystem sys = make_system(workload::Benchmark::kBasicmath);
  const Evaluation& slow = sys.evaluate(200.0, 0.0);
  const Evaluation& fast = sys.evaluate(400.0, 0.0);
  ASSERT_FALSE(slow.runaway);
  ASSERT_FALSE(fast.runaway);
  EXPECT_NEAR(fast.power.fan / slow.power.fan, 8.0, 1e-9);
}

TEST(CoolingSystem, CellInputsExposedForTransientReuse) {
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  EXPECT_EQ(sys.cell_dynamic_power().size(), 64u);
  EXPECT_EQ(sys.cell_leakage().size(), 64u);
}

}  // namespace
}  // namespace oftec::core
