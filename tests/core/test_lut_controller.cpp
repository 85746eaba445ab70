#include "core/lut_controller.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace oftec::core {
namespace {

using testing::benchmark_power;
using testing::coarse_config;
using testing::fp;
using testing::leakage;

LutController build_small_lut() {
  const std::vector<power::PowerMap> training = {
      benchmark_power(workload::Benchmark::kBasicmath),
      benchmark_power(workload::Benchmark::kCrc32),
      benchmark_power(workload::Benchmark::kQuicksort),
  };
  return LutController::build(training, fp(), leakage(), coarse_config());
}

TEST(LutController, BuildRejectsEmptyTraining) {
  EXPECT_THROW((void)LutController::build({}, fp(), leakage()),
               std::invalid_argument);
}

TEST(LutController, StoresOneEntryPerTrainingMap) {
  const LutController lut = build_small_lut();
  EXPECT_EQ(lut.entries().size(), 3u);
  for (const LutController::Entry& e : lut.entries()) {
    EXPECT_TRUE(e.feasible);
    EXPECT_GT(e.omega, 0.0);
  }
}

TEST(LutController, ExactQueryReturnsOwnEntry) {
  const LutController lut = build_small_lut();
  const auto query = benchmark_power(workload::Benchmark::kCrc32);
  const LutController::LookupResult r = lut.lookup(query);
  EXPECT_EQ(r.entry_index, 1u);
  EXPECT_NEAR(r.feature_distance, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.omega, lut.entries()[1].omega);
}

TEST(LutController, PerturbedQuerySnapsToNearestNeighbor) {
  const LutController lut = build_small_lut();
  power::PowerMap query = benchmark_power(workload::Benchmark::kQuicksort);
  query.scale(1.02);  // 2 % hotter — still closest to Quicksort
  const LutController::LookupResult r = lut.lookup(query);
  EXPECT_EQ(r.entry_index, 2u);
  EXPECT_GT(r.feature_distance, 0.0);
}

TEST(LutController, HeavierQueryGetsMoreCooling) {
  const LutController lut = build_small_lut();
  const auto light = lut.lookup(benchmark_power(workload::Benchmark::kCrc32));
  const auto heavy =
      lut.lookup(benchmark_power(workload::Benchmark::kQuicksort));
  EXPECT_GT(heavy.omega, light.omega);
  EXPECT_GT(heavy.current, light.current);
}

TEST(LutController, LookupCostsNoThermalSolves) {
  const LutController lut = build_small_lut();
  // Lookup uses only the stored features; construct a fresh query and make
  // sure it completes without touching any CoolingSystem.
  const auto query = benchmark_power(workload::Benchmark::kFft);
  const LutController::LookupResult r = lut.lookup(query);
  EXPECT_GE(r.entry_index, 0u);
  EXPECT_LE(r.entry_index, 2u);
}

TEST(LutController, ParallelBuildBitIdenticalToSerial) {
  // Each entry is a pure function of its training map, so the pool's
  // schedule cannot move a bit of the table.
  const std::vector<power::PowerMap> training = {
      benchmark_power(workload::Benchmark::kBasicmath),
      benchmark_power(workload::Benchmark::kCrc32),
      benchmark_power(workload::Benchmark::kQuicksort),
      benchmark_power(workload::Benchmark::kFft),
  };
  const LutController serial = LutController::build(
      training, fp(), leakage(), coarse_config(), {}, /*threads=*/1);
  const LutController parallel = LutController::build(
      training, fp(), leakage(), coarse_config(), {}, /*threads=*/4);
  ASSERT_EQ(serial.entries().size(), training.size());
  ASSERT_EQ(parallel.entries().size(), training.size());
  for (std::size_t i = 0; i < training.size(); ++i) {
    const LutController::Entry& a = serial.entries()[i];
    const LutController::Entry& b = parallel.entries()[i];
    EXPECT_EQ(a.feature, b.feature) << "entry " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "entry " << i;
    EXPECT_EQ(a.status, b.status) << "entry " << i;
    EXPECT_EQ(a.omega, b.omega) << "entry " << i;
    EXPECT_EQ(a.current, b.current) << "entry " << i;
    EXPECT_EQ(a.max_chip_temperature, b.max_chip_temperature) << "entry " << i;
  }
}

TEST(LutController, FeatureIsPerBlockPowerVector) {
  const auto map = benchmark_power(workload::Benchmark::kFft);
  const la::Vector f = LutController::feature_of(map);
  ASSERT_EQ(f.size(), fp().block_count());
  EXPECT_DOUBLE_EQ(f[*fp().find("FPMul")], map.get("FPMul"));
}

}  // namespace
}  // namespace oftec::core
