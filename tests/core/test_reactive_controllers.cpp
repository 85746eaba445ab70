#include "core/reactive_controllers.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"
#include "thermal/transient_engine.h"
#include "util/units.h"

namespace oftec::core {
namespace {

using testing::make_system;

TEST(Hysteresis, ValidatesParameters) {
  HysteresisController::Params bad;
  bad.on_temperature = 350.0;
  bad.off_temperature = 355.0;  // inverted band
  EXPECT_THROW(HysteresisController{bad}, std::invalid_argument);
  bad = {};
  bad.omega = -1.0;
  EXPECT_THROW(HysteresisController{bad}, std::invalid_argument);
}

TEST(Hysteresis, SwitchesOnAboveOnTemperature) {
  HysteresisController::Params p;
  p.omega = 300.0;
  p.on_current = 2.0;
  p.on_temperature = 360.0;
  p.off_temperature = 356.0;
  HysteresisController ctrl(p);

  EXPECT_FALSE(ctrl.is_on());
  auto s = ctrl.control(0.0, 355.0);
  EXPECT_DOUBLE_EQ(s.current, 0.0);
  s = ctrl.control(0.1, 361.0);
  EXPECT_DOUBLE_EQ(s.current, 2.0);
  EXPECT_TRUE(ctrl.is_on());
  EXPECT_EQ(ctrl.switch_count(), 1u);
}

TEST(Hysteresis, BandSuppressesChatter) {
  HysteresisController::Params p;
  p.omega = 300.0;
  p.on_current = 2.0;
  p.on_temperature = 360.0;
  p.off_temperature = 356.0;
  HysteresisController with_band(p);
  HysteresisController no_band =
      make_threshold_controller(300.0, 2.0, 358.0);

  // Temperature dithers around the trip point.
  const double trace[] = {357.0, 359.0, 357.5, 359.5, 357.2, 359.2,
                          357.8, 358.9, 357.3, 359.4};
  for (const double t : trace) {
    (void)with_band.control(0.0, t);
    (void)no_band.control(0.0, t);
  }
  EXPECT_LT(with_band.switch_count(), no_band.switch_count());
  // Ref. [5]'s point: hysteresis "decreases the number of ON/OFF
  // transitions of TECs".
}

TEST(Hysteresis, StaysOnInsideTheBand) {
  HysteresisController::Params p;
  p.omega = 300.0;
  p.on_current = 1.5;
  p.on_temperature = 362.0;
  p.off_temperature = 357.0;
  HysteresisController ctrl(p);
  (void)ctrl.control(0.0, 363.0);  // ON
  const auto s = ctrl.control(0.1, 359.0);  // inside band → stay ON
  EXPECT_DOUBLE_EQ(s.current, 1.5);
  EXPECT_EQ(ctrl.switch_count(), 1u);
  (void)ctrl.control(0.2, 356.0);  // below band → OFF
  EXPECT_FALSE(ctrl.is_on());
  EXPECT_EQ(ctrl.switch_count(), 2u);
}

TEST(Hysteresis, ClosedLoopRegulatesTemperature) {
  // Drive the real plant: the controller must hold the chip near its band
  // and toggle a bounded number of times.
  const CoolingSystem sys = make_system(workload::Benchmark::kFft);
  const double t_on = units::celsius_to_kelvin(88.0);
  const double t_off = units::celsius_to_kelvin(86.0);

  HysteresisController::Params p;
  p.omega = units::rpm_to_rad_s(2200.0);
  p.on_current = 1.5;
  p.on_temperature = t_on;
  p.off_temperature = t_off;
  HysteresisController ctrl(p);

  thermal::TransientOptions topt;
  topt.time_step = 20e-3;
  topt.duration = 40.0;
  topt.record_stride = 10;
  const thermal::TransientEngine transient(sys.thermal_model(),
                                           sys.cell_dynamic_power(),
                                           sys.cell_leakage(), topt);
  // Start from the hot (TEC-off) steady state so the test skips the slow
  // minutes-long warm-up of the sink mass.
  const thermal::SteadyResult hot = sys.engine().solve({p.omega, 0.0});
  ASSERT_TRUE(hot.converged);
  const thermal::TransientResult r =
      transient.run_closed_loop(ctrl.as_feedback(), hot.temperatures);
  ASSERT_FALSE(r.runaway);

  // The package RC is slow relative to the band, so the loop oscillates
  // between the two open-loop steady states — it must stay inside that
  // envelope and keep re-crossing the band (ref. [5]'s ON/OFF behaviour).
  const double t_steady_off = hot.max_chip_temperature;
  const double t_steady_on =
      sys.evaluate(p.omega, p.on_current).max_chip_temperature;
  for (const thermal::TransientSample& s : r.samples) {
    EXPECT_LT(s.max_chip_temperature, t_steady_off + 0.5) << "t=" << s.time;
    EXPECT_GT(s.max_chip_temperature, t_steady_on - 0.5) << "t=" << s.time;
  }
  EXPECT_GE(ctrl.switch_count(), 2u);
}

}  // namespace
}  // namespace oftec::core
