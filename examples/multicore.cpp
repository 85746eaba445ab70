// Multicore example: OFTEC on a quad-core CMP die with asymmetric load.
//
// Builds a 22 mm quad-core floorplan (shared L2 + four simplified core
// tiles), derives per-unit power from an activity-based dynamic model
// (two cores busy, two idle), resizes the paper's package to the bigger
// die, and runs OFTEC. The thermal map shows the two busy tiles glowing —
// and the TEC current serving exactly them.
#include <cstdio>
#include <vector>

#include "core/oftec.h"
#include "floorplan/cmp.h"
#include "power/dynamic.h"
#include "power/mcpat_like.h"
#include "thermal/steady.h"
#include "thermal/thermal_map.h"
#include "util/units.h"

int main() {
  using namespace oftec;

  // Quad-core, 22 mm die, 30 % shared L2.
  const floorplan::Floorplan fp = floorplan::make_cmp_floorplan();
  std::printf("floorplan: %zu units on a %.0f mm quad-core die\n",
              fp.block_count(), units::m_to_mm(fp.die_width()));

  // Activity-based dynamic power: 70 W at full tilt on every unit.
  const power::DynamicPowerModel dyn_model =
      power::DynamicPowerModel::calibrate(fp, 70.0);

  // Cores 0 and 3 run hot (int-heavy), cores 1 and 2 are parked.
  std::vector<double> activity(fp.block_count(), 0.0);
  auto set_core = [&](int core, double base, double int_boost) {
    const std::string prefix = "c" + std::to_string(core) + "_";
    for (const char* unit : {"Icache", "Dcache", "IntExec", "IntReg", "LdStQ",
                             "FPAdd", "FPMul", "Bpred"}) {
      double a = base;
      if (std::string(unit).rfind("Int", 0) == 0) a += int_boost;
      activity[*fp.find(prefix + unit)] = std::min(1.0, a);
    }
  };
  activity[*fp.find("L2_shared")] = 0.35;
  set_core(0, 0.55, 0.35);
  set_core(1, 0.06, 0.0);
  set_core(2, 0.06, 0.0);
  set_core(3, 0.55, 0.35);

  const power::PowerMap workload = dyn_model.power(activity);
  std::printf("workload: %.1f W dynamic (cores 0 & 3 busy, 1 & 2 parked)\n",
              workload.total());

  // Leakage for the bigger die.
  power::ProcessConfig process;
  process.total_leakage_at_t0 = 9.0;  // more silicon, more leakage
  const power::LeakageModel leakage = power::characterize_leakage(fp, process);

  // Resize the paper's package to the 22 mm die, keeping overhang ratios.
  core::CoolingSystem::Config config;
  config.grid_nx = config.grid_ny = 12;
  config.package = config.package.scaled_to_die(fp.die_width(),
                                                fp.die_height());

  const core::CoolingSystem system(fp, workload, leakage, config);
  const core::OftecResult r = core::run_oftec(system);
  if (!r.success) {
    std::printf("OFTEC: infeasible — best %.2f C\n",
                units::kelvin_to_celsius(r.opt2_temperature));
    return 1;
  }
  std::printf("\nOFTEC: w* = %.0f RPM, I* = %.2f A, Tmax = %.2f C, "
              "P = %.2f W (leak %.2f + TEC %.2f + fan %.2f)\n",
              units::rad_s_to_rpm(r.omega), r.current,
              units::kelvin_to_celsius(r.max_chip_temperature),
              r.power.total(), r.power.leakage, r.power.tec, r.power.fan);

  const thermal::SteadyResult field =
      system.engine().solve({r.omega, r.current});
  std::printf("\n%s", thermal::render_slab_ascii(system.thermal_model(),
                                                 field.temperatures,
                                                 thermal::Slab::kChip)
                          .c_str());
  std::printf("\n(the hot corners are the two busy core tiles; the parked "
              "tiles stay near the L2 temperature)\n");
  return 0;
}
