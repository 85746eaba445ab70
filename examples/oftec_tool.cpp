// oftec_tool — command-line front end tying the library together.
//
// Usage:
//   oftec_tool [--flp FILE] [--config FILE]
//              [--benchmark NAME | --power UNIT=W,UNIT=W,...]
//              [--grid N] [--tmax C] [--ambient C] [--leakage W] [--map]
//
// Reads a HotSpot-format floorplan (or uses the built-in EV6), builds the
// paper's cooling package, runs OFTEC, and reports (ω*, I*) with the power
// breakdown; --map additionally renders the chip-layer temperature field.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "floorplan/flp_io.h"
#include "package/config_io.h"
#include "power/mcpat_like.h"
#include "thermal/steady.h"
#include "thermal/thermal_map.h"
#include "util/strings.h"
#include "util/units.h"
#include "workload/benchmarks.h"

namespace {

using namespace oftec;

struct Args {
  std::string flp_path;
  std::string config_path;
  std::string benchmark;
  std::string power_spec;
  std::size_t grid = 10;
  double t_max_c = 90.0;
  double ambient_c = 45.0;
  double leakage_w = 6.0;
  bool t_max_set = false;
  bool ambient_set = false;
  bool leakage_set = false;
  bool map = false;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--flp") {
      args.flp_path = value();
    } else if (arg == "--config") {
      args.config_path = value();
    } else if (arg == "--benchmark") {
      args.benchmark = value();
    } else if (arg == "--power") {
      args.power_spec = value();
    } else if (arg == "--grid") {
      args.grid = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg == "--tmax") {
      args.t_max_c = std::stod(value());
      args.t_max_set = true;
    } else if (arg == "--ambient") {
      args.ambient_c = std::stod(value());
      args.ambient_set = true;
    } else if (arg == "--leakage") {
      args.leakage_w = std::stod(value());
      args.leakage_set = true;
    } else if (arg == "--map") {
      args.map = true;
    } else if (arg == "--help" || arg == "-h") {
      args.help = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.help) {
    std::printf(
        "oftec_tool [--flp FILE] [--benchmark NAME | --power U=W,...]\n"
        "           [--grid N] [--tmax C] [--ambient C] [--leakage W] "
        "[--map]\n");
    return 0;
  }

  // Floorplan.
  const floorplan::Floorplan fp =
      args.flp_path.empty() ? floorplan::make_ev6_floorplan()
                            : floorplan::read_flp_file(args.flp_path);
  std::printf("floorplan: %zu units, %.1f x %.1f mm die%s\n",
              fp.block_count(), units::m_to_mm(fp.die_width()),
              units::m_to_mm(fp.die_height()),
              args.flp_path.empty() ? " (built-in EV6)" : "");

  // Workload.
  power::PowerMap workload_map(fp);
  if (!args.power_spec.empty()) {
    for (const std::string& pair : util::split(args.power_spec, ',')) {
      const auto kv = util::split(pair, '=');
      if (kv.size() != 2) {
        std::fprintf(stderr, "bad --power entry: %s\n", pair.c_str());
        return 2;
      }
      workload_map.set(std::string(util::trim(kv[0])), std::stod(kv[1]));
    }
  } else {
    const std::string bench_name =
        args.benchmark.empty() ? "Quicksort" : args.benchmark;
    const auto bench = workload::benchmark_by_name(bench_name);
    if (!bench) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", bench_name.c_str());
      return 2;
    }
    if (args.flp_path.empty()) {
      workload_map = workload::peak_power_map(workload::profile_for(*bench), fp);
    } else {
      std::fprintf(stderr,
                   "--benchmark profiles target the EV6 floorplan; use "
                   "--power with a custom --flp\n");
      return 2;
    }
    std::printf("workload: %s\n", bench_name.c_str());
  }
  std::printf("peak dynamic power: %.1f W\n", workload_map.total());

  // Process / package: start from --config (or paper defaults), then apply
  // explicit flags on top.
  package::ConfigBundle bundle;
  if (!args.config_path.empty()) {
    bundle = package::read_config_file(args.config_path);
    std::printf("config: %s\n", args.config_path.c_str());
  } else {
    bundle.package = package::PackageConfig::paper_default();
    bundle.process.t0 = bundle.package.ambient;
  }
  if (args.ambient_set) {
    bundle.package.ambient = units::celsius_to_kelvin(args.ambient_c);
    bundle.process.t0 = bundle.package.ambient;
  }
  if (args.t_max_set) {
    bundle.package.t_max = units::celsius_to_kelvin(args.t_max_c);
  }
  if (args.leakage_set) {
    bundle.process.total_leakage_at_t0 = args.leakage_w;
  }
  const power::LeakageModel leakage =
      power::characterize_leakage(fp, bundle.process);

  core::CoolingSystem::Config config;
  config.grid_nx = config.grid_ny = args.grid;
  // A custom floorplan may differ from the paper's 15.9 mm die: resize the
  // package to match (die-sized layers exactly, overhangs proportionally).
  config.package = bundle.package.scaled_to_die(fp.die_width(),
                                                fp.die_height());

  const core::CoolingSystem system(fp, workload_map, leakage, config);
  const core::OftecResult result = core::run_oftec(system);

  if (!result.success) {
    std::printf("\nOFTEC: INFEASIBLE — best achievable max temperature "
                "%.2f C exceeds the %.1f C limit.\n",
                units::kelvin_to_celsius(result.opt2_temperature),
                units::kelvin_to_celsius(config.package.t_max));
    std::printf("Consider a larger sink, a higher fan ceiling, or "
                "throttling the workload.\n");
    return 1;
  }

  std::printf("\nOFTEC solution (%.0f ms, %zu thermal solves):\n",
              result.runtime_ms, result.thermal_solves);
  std::printf("  w*    = %.0f RPM (%.1f rad/s)\n",
              units::rad_s_to_rpm(result.omega), result.omega);
  std::printf("  I*    = %.2f A\n", result.current);
  std::printf("  Tmax  = %.2f C (limit %.1f C)\n",
              units::kelvin_to_celsius(result.max_chip_temperature),
              units::kelvin_to_celsius(config.package.t_max));
  std::printf("  power = %.2f W (leakage %.2f + TEC %.2f + fan %.2f)\n",
              result.power.total(), result.power.leakage, result.power.tec,
              result.power.fan);

  if (args.map) {
    const thermal::SteadyResult field =
        system.engine().solve({result.omega, result.current});
    std::printf("\n%s", thermal::render_slab_ascii(
                            system.thermal_model(), field.temperatures,
                            thermal::Slab::kChip)
                            .c_str());
  }
  return 0;
}
