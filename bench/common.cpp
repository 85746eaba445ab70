#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/obs.h"
#include "util/strings.h"
#include "util/units.h"

namespace oftec::bench {

const floorplan::Floorplan& paper_floorplan() {
  static const floorplan::Floorplan fp = floorplan::make_ev6_floorplan();
  return fp;
}

const power::LeakageModel& paper_leakage() {
  static const power::LeakageModel model =
      power::characterize_leakage(paper_floorplan(), power::ProcessConfig{});
  return model;
}

std::vector<SweepRow> run_paper_sweep(const SweepOptions& options) {
  OBS_SPAN("bench.paper_sweep");
  const floorplan::Floorplan& fp = paper_floorplan();
  const power::LeakageModel& leak = paper_leakage();
  const double fixed_omega = units::rpm_to_rad_s(options.fixed_fan_rpm);

  std::vector<SweepRow> rows;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    const workload::BenchmarkProfile& prof = workload::profile_for(b);
    const power::PowerMap peak = workload::peak_power_map(prof, fp);

    core::CoolingSystem::Config hybrid_cfg;
    hybrid_cfg.grid_nx = options.grid_nx;
    hybrid_cfg.grid_ny = options.grid_ny;
    core::CoolingSystem::Config fan_cfg = hybrid_cfg;
    fan_cfg.package = hybrid_cfg.package.without_tecs();

    const core::CoolingSystem hybrid(fp, peak, leak, hybrid_cfg);
    const core::CoolingSystem fan_only(fp, peak, leak, fan_cfg);

    SweepRow row;
    row.benchmark = b;
    row.name = prof.name;
    row.dynamic_power = peak.total();
    row.t_max = hybrid.t_max();
    row.oftec = core::run_oftec(hybrid, options.oftec);
    row.oftec_engine = hybrid.engine().stats();
    row.variable_fan = core::run_variable_fan_baseline(fan_only, options.oftec);
    row.fixed_fan = core::run_fixed_fan_baseline(fan_only, fixed_omega);
    row.oftec_min_temp = core::run_min_temperature(hybrid, options.oftec);
    row.variable_min_temp =
        core::run_min_temperature(fan_only, options.oftec);
    if (options.run_tec_only) {
      row.tec_only = core::run_tec_only(hybrid, 11);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string format_celsius(double kelvin, int decimals) {
  return util::format_double(units::kelvin_to_celsius(kelvin), decimals);
}

std::string format_watts(double watts, int decimals) {
  return util::format_double(watts, decimals);
}

std::string format_rpm(double rad_s, int decimals) {
  return util::format_double(units::rad_s_to_rpm(rad_s), decimals);
}

std::string format_temperature_outcome(double kelvin, double t_max_kelvin) {
  if (!std::isfinite(kelvin)) return "RUNAWAY";
  std::string out = format_celsius(kelvin);
  if (kelvin > t_max_kelvin) out += " (>Tmax)";
  return out;
}

void emit_obs_artifacts() {
  if (!obs::enabled()) return;
  obs::flush();  // rewrites the OFTEC_OBS_REPORT / OFTEC_TRACE_FILE artifacts
  if (obs::report_path_from_env().empty()) {
    const char* path = "obs_report.json";
    if (obs::write_report_file(path)) {
      std::fprintf(stderr, "[obs] metrics report written to %s\n", path);
    }
  }
  const std::string table = obs::profile_table();
  if (!table.empty()) std::fprintf(stderr, "%s", table.c_str());
}

std::string bench_artifact_path() {
  const char* env = std::getenv("OFTEC_BENCH_JSON");
  if (env != nullptr && env[0] != '\0') return env;
  return "BENCH_transient.json";
}

void update_bench_artifact(const std::string& section,
                           const util::json::Value& payload) {
  const std::string path = bench_artifact_path();
  util::json::Value doc = util::json::Value::object();
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        util::json::Value existing = util::json::parse(buf.str());
        if (existing.is_object()) doc = std::move(existing);
      } catch (const std::exception&) {
        // Corrupt artifact: start fresh rather than fail the bench.
      }
    }
  }
  doc[section] = payload;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  out << doc.dump(2) << "\n";
  std::fprintf(stderr, "[bench] %s section written to %s\n", section.c_str(),
               path.c_str());
}

void print_header(const std::string& figure, const std::string& claim) {
  static const bool obs_hook_armed = [] {
    std::atexit(emit_obs_artifacts);
    return true;
  }();
  (void)obs_hook_armed;
  std::printf("==============================================================\n");
  std::printf("OFTEC reproduction — %s\n", figure.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

}  // namespace oftec::bench
