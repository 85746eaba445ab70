// Shared machinery for the paper-reproduction bench binaries.
//
// Every Figure-6 panel compares the same three systems over the same eight
// benchmarks; run_paper_sweep() executes that sweep once (OFTEC + variable-ω
// + fixed-ω + TEC-only per benchmark) and the per-figure binaries print
// their slice of it.
#pragma once

#include <string>
#include <vector>

#include "core/baselines.h"
#include "util/json.h"
#include "core/cooling_system.h"
#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "workload/benchmarks.h"

namespace oftec::bench {

/// Everything measured for one benchmark.
struct SweepRow {
  workload::Benchmark benchmark;
  std::string name;
  double dynamic_power = 0.0;  ///< peak total [W]
  double t_max = 0.0;          ///< thermal threshold [K]
  core::OftecResult oftec;
  /// The hybrid system's engine counters right after run_oftec.
  thermal::EngineStats oftec_engine;
  core::BaselineResult variable_fan;
  core::BaselineResult fixed_fan;
  core::BaselineResult tec_only;
  /// Standalone Optimization 2 runs (Fig. 6(c,d)) for the hybrid system and
  /// the fan-only baseline.
  core::MinTemperatureResult oftec_min_temp;
  core::MinTemperatureResult variable_min_temp;
};

struct SweepOptions {
  std::size_t grid_nx = 10;
  std::size_t grid_ny = 10;
  double fixed_fan_rpm = 2000.0;  ///< paper's baseline #2
  core::OftecOptions oftec;
  bool run_tec_only = true;
};

/// Shared floorplan / leakage singletons (paper defaults).
[[nodiscard]] const floorplan::Floorplan& paper_floorplan();
[[nodiscard]] const power::LeakageModel& paper_leakage();

/// Run the full three-system sweep over all eight benchmarks.
[[nodiscard]] std::vector<SweepRow> run_paper_sweep(
    const SweepOptions& options = {});

/// Format helpers shared by the binaries.
[[nodiscard]] std::string format_celsius(double kelvin, int decimals = 2);
[[nodiscard]] std::string format_watts(double watts, int decimals = 2);
[[nodiscard]] std::string format_rpm(double rad_s, int decimals = 0);
/// "RUNAWAY" / "> Tmax" / plain value — the way Fig. 6 marks failures.
[[nodiscard]] std::string format_temperature_outcome(double kelvin,
                                                     double t_max_kelvin);

/// Standard bench preamble: figure id + what the paper shows. Also arms the
/// exit-time observability hook (see emit_obs_artifacts), so every bench
/// binary run with OFTEC_OBS=1 produces a machine-readable metrics artifact.
void print_header(const std::string& figure, const std::string& claim);

/// When obs is enabled: write the env-configured report/trace files (or a
/// default ./obs_report.json when OFTEC_OBS=1 but no report path is set) and
/// print the span self-time profile to stderr. No-op when obs is off.
/// print_header() registers this via atexit; callable directly for binaries
/// that want the artifacts mid-run.
void emit_obs_artifacts();

/// Path of the machine-readable transient-performance artifact:
/// $OFTEC_BENCH_JSON when set, else ./BENCH_transient.json (the CI perf-smoke
/// job uploads it; a baseline is checked in at the repo root).
[[nodiscard]] std::string bench_artifact_path();

/// Read-merge-write one section of the artifact: parses the existing file (a
/// missing or corrupt file starts fresh), replaces `section` with `payload`,
/// and rewrites the whole document — the transient benches share one file.
void update_bench_artifact(const std::string& section,
                           const util::json::Value& payload);

}  // namespace oftec::bench
