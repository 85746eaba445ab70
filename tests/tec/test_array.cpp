#include "tec/array.h"

#include <gtest/gtest.h>

#include "tec/device.h"

namespace oftec::tec {
namespace {

TecDeviceParams unit_params() {
  TecDeviceParams p;
  p.footprint = 1e-6;  // 1 mm²
  return p;
}

TEST(TecArray, MultiplierScalesWithCellArea) {
  // A 2.5 mm² cell holds 2.5 one-mm² units.
  const TecArray arr(unit_params(), {true, false, true}, 2.5e-6);
  EXPECT_EQ(arr.cell_count(), 3u);
  EXPECT_NEAR(arr.cell(0).multiplier, 2.5, 1e-12);
  EXPECT_FALSE(arr.cell(1).covered);
}

TEST(TecArray, EffectiveParametersScaleLinearly) {
  const TecDeviceParams p = unit_params();
  const TecArray arr(p, {true}, 3e-6);
  const CellTec& c = arr.cell(0);
  EXPECT_NEAR(c.seebeck, 3.0 * p.seebeck, 1e-15);
  EXPECT_NEAR(c.resistance, 3.0 * p.resistance, 1e-15);
  EXPECT_NEAR(c.conductance, 3.0 * p.conductance, 1e-15);
}

TEST(TecArray, RejectsBadInputs) {
  EXPECT_THROW(TecArray(unit_params(), {true}, 0.0), std::invalid_argument);
  TecDeviceParams bad = unit_params();
  bad.seebeck = -1.0;
  EXPECT_THROW(TecArray(bad, {true}, 1e-6), std::invalid_argument);
}

TEST(TecArray, CellIndexOutOfRangeThrows) {
  const TecArray arr(unit_params(), {true}, 1e-6);
  EXPECT_THROW((void)arr.cell(1), std::out_of_range);
}

TEST(TecArray, ElectricalPowerMatchesPerDeviceSum) {
  const TecDeviceParams p = unit_params();
  const TecArray arr(p, {true, true}, 1e-6);  // m = 1 per cell
  const std::vector<double> cold = {350.0, 345.0};
  const std::vector<double> hot = {355.0, 352.0};
  const double current = 2.0;
  const double expected = electrical_power(p, cold[0], hot[0], current) +
                          electrical_power(p, cold[1], hot[1], current);
  EXPECT_NEAR(arr.electrical_power(cold, hot, current), expected, 1e-12);
}

TEST(TecArray, UncoveredCellsContributeNothing) {
  const TecArray arr(unit_params(), {false, false}, 1e-6);
  const std::vector<double> t = {350.0, 350.0};
  EXPECT_DOUBLE_EQ(arr.electrical_power(t, t, 5.0), 0.0);
}

TEST(TecArray, ArityMismatchThrows) {
  const TecArray arr(unit_params(), {true, true}, 1e-6);
  const std::vector<double> wrong = {350.0};
  const std::vector<double> right = {350.0, 350.0};
  EXPECT_THROW((void)arr.electrical_power(wrong, right, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace oftec::tec
