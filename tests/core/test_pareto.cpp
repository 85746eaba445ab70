#include "core/pareto.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;

ParetoOptions fast_options() {
  ParetoOptions opts;
  opts.system = coarse_config();
  opts.points = 5;
  opts.t_limit_lo_c = 82.0;
  opts.t_limit_hi_c = 98.0;
  return opts;
}

TEST(Pareto, ReferenceSharedAndThreadedFrontsAreBitIdentical) {
  // Evaluations depend only on (ω, I), so a fresh system per threshold, one
  // shared memoized system, and that system fanned over a pool must all
  // trace the same front bit for bit.
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  ParetoOptions opts = fast_options();
  opts.share_system = false;
  const auto reference = sweep_pareto_front(fp(), power, leakage(), opts);
  opts.share_system = true;
  opts.threads = 1;
  const auto shared = sweep_pareto_front(fp(), power, leakage(), opts);
  opts.threads = 4;
  const auto threaded = sweep_pareto_front(fp(), power, leakage(), opts);

  ASSERT_EQ(reference.size(), opts.points);
  for (const auto* front : {&shared, &threaded}) {
    ASSERT_EQ(front->size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const ParetoPoint& a = reference[i];
      const ParetoPoint& b = (*front)[i];
      EXPECT_EQ(a.t_limit, b.t_limit) << "point " << i;
      EXPECT_EQ(a.feasible, b.feasible) << "point " << i;
      EXPECT_EQ(a.status, b.status) << "point " << i;
      EXPECT_EQ(a.cooling_power, b.cooling_power) << "point " << i;
      EXPECT_EQ(a.max_chip_temperature, b.max_chip_temperature)
          << "point " << i;
      EXPECT_EQ(a.omega, b.omega) << "point " << i;
      EXPECT_EQ(a.current, b.current) << "point " << i;
    }
  }
}

TEST(Pareto, ValidatesRange) {
  const auto power = benchmark_power(workload::Benchmark::kFft);
  ParetoOptions bad = fast_options();
  bad.points = 1;
  EXPECT_THROW((void)sweep_pareto_front(fp(), power, leakage(), bad),
               std::invalid_argument);
  bad = fast_options();
  bad.t_limit_hi_c = bad.t_limit_lo_c;
  EXPECT_THROW((void)sweep_pareto_front(fp(), power, leakage(), bad),
               std::invalid_argument);
}

TEST(Pareto, PowerIsNonIncreasingAlongRelaxedThresholds) {
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  const auto front = sweep_pareto_front(fp(), power, leakage(), fast_options());
  ASSERT_EQ(front.size(), 5u);
  double last_power = 1e300;
  for (const ParetoPoint& pt : front) {
    if (!pt.feasible) continue;
    EXPECT_LE(pt.cooling_power, last_power * 1.01)  // solver tolerance slack
        << "at T_limit " << units::kelvin_to_celsius(pt.t_limit);
    last_power = std::min(last_power, pt.cooling_power);
  }
}

TEST(Pareto, TightThresholdsBecomeInfeasible) {
  // Quicksort's minimum achievable temperature sits near 86 °C at the test
  // grid, so an 82 °C threshold cannot be met while 98 °C trivially can.
  const auto power = benchmark_power(workload::Benchmark::kQuicksort);
  const auto front = sweep_pareto_front(fp(), power, leakage(), fast_options());
  EXPECT_FALSE(front.front().feasible);
  EXPECT_TRUE(front.back().feasible);
}

TEST(Pareto, AchievedTemperatureRespectsEachThreshold) {
  const auto power = benchmark_power(workload::Benchmark::kSusan);
  const auto front = sweep_pareto_front(fp(), power, leakage(), fast_options());
  for (const ParetoPoint& pt : front) {
    if (!pt.feasible) continue;
    EXPECT_LT(pt.max_chip_temperature, pt.t_limit);
  }
}

TEST(Pareto, LightWorkloadFeasibleEverywhere) {
  const auto power = benchmark_power(workload::Benchmark::kCrc32);
  const auto front = sweep_pareto_front(fp(), power, leakage(), fast_options());
  for (const ParetoPoint& pt : front) {
    EXPECT_TRUE(pt.feasible)
        << units::kelvin_to_celsius(pt.t_limit) << " C";
  }
}

}  // namespace
}  // namespace oftec::core
