// Multi-zone control ablation (extension beyond the paper): the paper wires
// every deployed TEC in series and drives them with one shared current
// (Sec. 6.1). Splitting the array into independently driven zones (integer
// cluster / FP cluster / remaining core) lets the optimizer starve cool
// zones while feeding the hot one — this bench quantifies the extra power
// saving per benchmark. Both columns are the same run_oftec, on a
// CoolingSystem with the default single zone and one built with
// ZonePartition::by_unit_cluster.
//
// Exit code 1 (reason on stderr) unless all 16 runs succeed, every 3-zone
// 𝒫* is within kMaxRatio of its 1-zone 𝒫*, and every zone current lies in
// [0, I_max].
#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/multizone.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

/// Strictly more freedom cannot do worse, up to solver tolerance (the bound
/// of MultiZone.BeatsOrMatchesSingleCurrentOftec).
constexpr double kMaxRatio = 1.03;

/// Every zone current of a run lies in [0, I_max].
bool currents_in_box(const oftec::core::OftecResult& r,
                     const oftec::core::CoolingSystem& system) {
  for (const double current : r.zone_currents) {
    if (!(current >= 0.0 && current <= system.current_max())) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Multi-zone TEC control (extension)",
               "independent per-cluster currents generalize the paper's "
               "single shared I_TEC; the optimizer feeds the hot cluster "
               "and starves the rest");

  const floorplan::Floorplan& fp = paper_floorplan();
  constexpr std::size_t kGrid = 10;

  util::Table table;
  table.set_header({"Benchmark", "1-zone P [W]", "I*",
                    "3-zone P [W]", "I_int/I_fp/I_misc", "saving"});

  double total_saving = 0.0;
  std::size_t comparable = 0;
  bool ok = true;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    const auto& prof = workload::profile_for(b);
    const power::PowerMap peak = workload::peak_power_map(prof, fp);

    core::CoolingSystem::Config cfg;
    cfg.grid_nx = cfg.grid_ny = kGrid;
    const core::CoolingSystem scalar(fp, peak, paper_leakage(), cfg);
    const core::OftecResult r1 = core::run_oftec(scalar);

    core::CoolingSystem::Config zoned = cfg;
    zoned.zones = core::ZonePartition::by_unit_cluster(fp, kGrid, kGrid);
    const core::CoolingSystem multi(fp, peak, paper_leakage(), zoned);
    const core::OftecResult r3 = core::run_oftec(multi);

    if (!r1.success || !r3.success) {
      std::fprintf(stderr, "GATE %s: a run failed (1-zone %s, 3-zone %s)\n",
                   prof.name.c_str(), r1.success ? "ok" : "FAIL",
                   r3.success ? "ok" : "FAIL");
      ok = false;
    } else if (r3.power.total() > kMaxRatio * r1.power.total()) {
      std::fprintf(stderr, "GATE %s: 3-zone P* %.6g W > %.2f x 1-zone %.6g W\n",
                   prof.name.c_str(), r3.power.total(), kMaxRatio,
                   r1.power.total());
      ok = false;
    }
    if (!currents_in_box(r1, scalar) || !currents_in_box(r3, multi)) {
      std::fprintf(stderr, "GATE %s: a zone current is outside [0, I_max]\n",
                   prof.name.c_str());
      ok = false;
    }

    if (r1.success && r3.success) {
      ++comparable;
      const double saving = 1.0 - r3.power.total() / r1.power.total();
      total_saving += saving;
      table.add_row(
          {prof.name, format_watts(r1.power.total()),
           util::format_double(r1.current, 2), format_watts(r3.power.total()),
           util::format_double(r3.zone_currents[0], 2) + "/" +
               util::format_double(r3.zone_currents[1], 2) + "/" +
               util::format_double(r3.zone_currents[2], 2),
           util::format_double(100.0 * saving, 1) + "%"});
    } else {
      table.add_row({prof.name, r1.success ? format_watts(r1.power.total())
                                           : std::string("FAIL"),
                     std::string("-"),
                     r3.success ? format_watts(r3.power.total())
                                : std::string("FAIL"),
                     std::string("-"), std::string("-")});
    }
  }
  table.print(std::cout);
  if (comparable > 0) {
    std::printf("\nAverage additional saving from 3-zone control: %.1f%% of "
                "the single-current cooling power (over %zu benchmarks).\n",
                100.0 * total_saving / static_cast<double>(comparable),
                comparable);
  }
  std::fprintf(stderr, "gates (16 runs succeed, 3-zone P* <= %.2fx 1-zone, "
               "zone currents in [0, I_max]): %s\n", kMaxRatio,
               ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}
