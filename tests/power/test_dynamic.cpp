#include "power/dynamic.h"

#include <gtest/gtest.h>

#include "floorplan/ev6.h"

namespace oftec::power {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

TEST(DynamicPower, CalibrationHitsTargetAtFullActivity) {
  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 45.0);
  const std::vector<double> full(fp().block_count(), 1.0);
  EXPECT_NEAR(model.power(full).total(), 45.0, 1e-9);
}

TEST(DynamicPower, ActivityScalesLinearly) {
  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 40.0);
  const std::vector<double> half(fp().block_count(), 0.5);
  EXPECT_NEAR(model.power(half).total(), 20.0, 1e-9);
}

TEST(DynamicPower, VoltageScalesQuadraticallyFrequencyLinearly) {
  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 40.0);
  const std::vector<double> full(fp().block_count(), 1.0);
  VfPoint scaled = model.nominal();
  scaled.voltage *= 0.9;
  scaled.frequency_ghz *= 0.8;
  const double expected = 40.0 * 0.9 * 0.9 * 0.8;
  EXPECT_NEAR(model.power(full, scaled).total(), expected, 1e-9);
  EXPECT_NEAR(model.scale_of(scaled), 0.9 * 0.9 * 0.8, 1e-12);
}

TEST(DynamicPower, CoreDensityRatioFavorsLogic) {
  const DynamicPowerModel model =
      DynamicPowerModel::calibrate(fp(), 40.0, 3.0);
  const std::vector<double> full(fp().block_count(), 1.0);
  const PowerMap map = model.power(full);
  const auto int_exec = *fp().find("IntExec");
  const auto l2 = *fp().find("L2");
  const double logic_density =
      map.get(int_exec) / fp().blocks()[int_exec].area();
  const double cache_density = map.get(l2) / fp().blocks()[l2].area();
  EXPECT_NEAR(logic_density / cache_density, 3.0, 1e-9);
}

TEST(DynamicPower, PerUnitActivityRouting) {
  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 40.0);
  std::vector<double> activity(fp().block_count(), 0.0);
  activity[*fp().find("FPMul")] = 1.0;
  const PowerMap map = model.power(activity);
  EXPECT_GT(map.get("FPMul"), 0.0);
  EXPECT_DOUBLE_EQ(map.get("IntExec"), 0.0);
  EXPECT_NEAR(map.total(), map.get("FPMul"), 1e-12);
}

TEST(DynamicPower, ValidatesInputs) {
  EXPECT_THROW((void)DynamicPowerModel::calibrate(fp(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(DynamicPowerModel(fp(), {1.0}), std::invalid_argument);

  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 40.0);
  std::vector<double> bad(fp().block_count(), 1.5);  // activity > 1
  EXPECT_THROW((void)model.power(bad), std::invalid_argument);
  const std::vector<double> ok(fp().block_count(), 0.5);
  VfPoint bad_vf;
  bad_vf.voltage = 0.0;
  EXPECT_THROW((void)model.power(ok, bad_vf), std::invalid_argument);
}

TEST(DynamicPower, ThrottleExponentsMatchThrottleModule) {
  // Throttling scales dynamic power as factor^exponent: 1 for f-only, 3 for
  // full DVFS (V tracks f). The dynamic model reproduces both limits.
  const DynamicPowerModel model = DynamicPowerModel::calibrate(fp(), 40.0);
  const double factor = 0.8;
  VfPoint f_only = model.nominal();
  f_only.frequency_ghz *= factor;
  EXPECT_NEAR(model.scale_of(f_only), factor, 1e-12);  // exponent 1

  VfPoint dvfs = model.nominal();
  dvfs.frequency_ghz *= factor;
  dvfs.voltage *= factor;
  EXPECT_NEAR(model.scale_of(dvfs), factor * factor * factor, 1e-12);  // 3
}

}  // namespace
}  // namespace oftec::power
