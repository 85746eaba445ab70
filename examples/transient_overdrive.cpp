#include <algorithm>
// Transient overdrive: absorb a sudden load burst with a TEC current boost
// (Sec. 6.2 / Ref. [8]) while a new OFTEC solution is being computed.
//
// Scenario: the chip cruises on the Basicmath workload at its OFTEC optimum.
// At t = 0 the workload jumps to Quicksort. Re-optimizing takes a control
// interval; during that window the firmware applies the paper's recipe —
// "increase I* by about 1 A for 1 s" — and we watch how much overshoot the
// boost absorbs compared to doing nothing.
#include <cstdio>

#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/transient_engine.h"
#include "util/units.h"
#include "workload/benchmarks.h"

int main() {
  using namespace oftec;

  const floorplan::Floorplan fp = floorplan::make_ev6_floorplan();
  const power::LeakageModel leakage =
      power::characterize_leakage(fp, power::ProcessConfig{});

  const power::PowerMap cruise = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kBasicmath), fp);
  const power::PowerMap burst = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort), fp);

  // Old control: OFTEC optimum for the cruise load.
  const core::CoolingSystem cruise_sys(fp, cruise, leakage);
  const core::OftecResult cruise_star = core::run_oftec(cruise_sys);
  std::printf("Cruise optimum (Basicmath): w=%.0f RPM, I=%.2f A, T=%.1f C\n",
              units::rad_s_to_rpm(cruise_star.omega), cruise_star.current,
              units::kelvin_to_celsius(cruise_star.max_chip_temperature));

  // Steady state under the cruise control = state at the moment of the jump.
  const thermal::SteadyResult initial =
      cruise_sys.engine().solve({cruise_star.omega, cruise_star.current});

  // Transient model driven by the burst's power from t = 0.
  const core::CoolingSystem burst_sys(fp, burst, leakage);
  thermal::TransientOptions topt;
  topt.time_step = 5e-3;
  topt.duration = 3.0;
  topt.record_stride = 10;
  const thermal::TransientEngine transient(burst_sys.thermal_model(),
                                           burst_sys.cell_dynamic_power(),
                                           burst_sys.cell_leakage(), topt);

  const double boost_current =
      std::min(cruise_star.current + 1.0, burst_sys.current_max());
  const double boost_window = 1.0;  // s

  const thermal::ControlSchedule lazy =
      [&](double) -> thermal::ControlSetting {
    return {cruise_star.omega, cruise_star.current};
  };
  const thermal::ControlSchedule boosted =
      [&](double t) -> thermal::ControlSetting {
    return {cruise_star.omega,
            t < boost_window ? boost_current : cruise_star.current};
  };

  const thermal::TransientResult r_lazy =
      transient.run(lazy, initial.temperatures);
  const thermal::TransientResult r_boost =
      transient.run(boosted, initial.temperatures);

  std::printf("\nLoad steps Basicmath -> Quicksort at t=0; old fan speed "
              "kept, boost = +1 A for 1 s.\n\n");
  std::printf("  t [s]   no-boost Tmax [C]   boosted Tmax [C]   boost gain\n");
  std::printf("  ---------------------------------------------------------\n");
  double worst_gain = 0.0;
  for (std::size_t i = 0; i < r_lazy.samples.size(); i += 6) {
    const auto& a = r_lazy.samples[i];
    const auto& b = r_boost.samples[std::min(i, r_boost.samples.size() - 1)];
    const double gain = units::kelvin_to_celsius(a.max_chip_temperature) -
                        units::kelvin_to_celsius(b.max_chip_temperature);
    worst_gain = std::max(worst_gain, gain);
    std::printf("  %5.2f   %17.2f   %16.2f   %+9.2f C\n", a.time,
                units::kelvin_to_celsius(a.max_chip_temperature),
                units::kelvin_to_celsius(b.max_chip_temperature), gain);
  }
  std::printf("\nPeak transient relief from the boost: %.2f C — headroom "
              "for the controller to compute the new (w*, I*).\n",
              worst_gain);
  return 0;
}
