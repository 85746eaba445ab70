// alg1 — Algorithm 1 (exact OFTEC) per control decision, closed loop on one
// thread: the paper's Table-2 number and the per-decision latency of the
// exact controller.
//
// One op: take the per-unit max-power map of a seeded 0.5-s trace window of
// one MiBench profile, build a 10×10 core::CoolingSystem for it, and run
// core::run_oftec. The time goes to SQP-driven, warm-started CG steady
// solves (opt, the core memo, thermal::SolveEngine, la CG); there is no
// transient engine, no service and almost no factorization.
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common.h"
#include "core/cooling_system.h"
#include "core/oftec.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "probes.h"
#include "util/units.h"
#include "workload/benchmarks.h"
#include "workload/trace.h"

namespace perfbench {

namespace core = oftec::core;
namespace workload = oftec::workload;
namespace units = oftec::units;

namespace {

/// Decision inputs per profile; the pool (8 × 24 = 192 windows) is about
/// one 25-s run of ops, so most ops decide a fresh window.
constexpr std::size_t kPoolPerProfile = 24;
constexpr double kGoldenTolerance = 1e-3;  // the Table-2 golden test's 0.1 %

/// Everything a run needs before timing starts. Held by pointer: the power
/// maps and the leakage model keep references to the floorplan.
struct Inputs {
  oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  std::vector<oftec::power::PowerMap> maps;  ///< the decision pool
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  for (const workload::PowerTrace& window :
       trace_windows(in->fp, seed, kPoolPerProfile)) {
    in->maps.push_back(workload::max_power_map(window, in->fp));
  }
  return in;
}

struct GoldenRow {
  bool feasible = false;
  double current_a = 0.0;
  double omega_rpm = 0.0;
  double total_power_w = 0.0;
  double max_temp_c = 0.0;
};

/// The `oftec` rows of the Table-2 golden CSV, keyed by benchmark name.
std::map<std::string, GoldenRow> read_golden(const std::string& path) {
  std::map<std::string, GoldenRow> rows;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string name, system, field;
    std::getline(ss, name, ',');
    std::getline(ss, system, ',');
    if (system != "oftec") continue;
    GoldenRow r;
    std::getline(ss, field, ',');
    r.feasible = field == "1";
    double* columns[] = {&r.current_a, &r.omega_rpm, &r.total_power_w,
                         &r.max_temp_c};
    for (double* c : columns) {
      std::getline(ss, field, ',');
      *c = std::stod(field);
    }
    rows[name] = r;
  }
  return rows;
}

bool within_golden(double actual, double golden) {
  return std::abs(actual - golden) <=
         kGoldenTolerance * std::max(std::abs(golden), 1e-6);
}

/// Untimed output check (and warm-up): the eight unperturbed peak maps must
/// reproduce the golden Table-2 rows and stay within T_max.
void check_table2(const Inputs& in, const Options& options, Report& report) {
  std::map<std::string, GoldenRow> golden;
  try {
    golden = read_golden(options.golden);
  } catch (const std::exception& e) {
    report.fail(std::string("golden file unreadable: ") + e.what());
    return;
  }
  if (golden.empty()) {
    report.fail("no oftec rows in " + options.golden);
    return;
  }
  std::size_t matched = 0;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    const std::string name = workload::benchmark_name(b);
    const core::CoolingSystem system(
        in.fp, workload::peak_power_map(workload::profile_for(b), in.fp),
        in.leakage);
    const core::OftecResult r = core::run_oftec(system);
    ++report.attempted;
    if (!r.success || !(r.max_chip_temperature <= system.t_max())) {
      report.fail("table2 " + name + ": infeasible or above T_max");
      continue;
    }
    const auto it = golden.find(name);
    if (it == golden.end()) continue;
    ++matched;
    const GoldenRow& g = it->second;
    if (r.success != g.feasible ||
        !within_golden(r.current, g.current_a) ||
        !within_golden(units::rad_s_to_rpm(r.omega), g.omega_rpm) ||
        !within_golden(r.power.total(), g.total_power_w) ||
        !within_golden(units::kelvin_to_celsius(r.max_chip_temperature),
                       g.max_temp_c)) {
      report.fail("table2 " + name + ": differs from golden by > 0.1 %");
    }
  }
  if (matched != golden.size()) report.fail("golden rows left unmatched");
  report.info["golden_rows_checked"] = static_cast<std::uint64_t>(matched);
}

/// Per-decision work counts read off the library's public results.
struct OpCounts {
  oftec::thermal::EngineStats engine;
  std::size_t thermal_solves = 0;
  std::size_t memo_hits = 0;
  std::size_t evaluations = 0;
};

struct Phase {
  Timings ops;
  std::vector<double> cooling_w;  ///< 𝒫* of the first pass over the pool
  // Traced phase only; times at reference host speed.
  std::vector<OpCounts> counts;
  Timings system_build, oftec, solve_point, cg;
  std::vector<double> cg_iters;
  std::vector<double> opt_share;
};

/// Closed loop over the pool until `seconds` have elapsed. Each op is
/// bracketed by calibration runs (see common.h).
Phase run_phase(const Inputs& in, double seconds, std::uint64_t first_op,
                Tracer& tracer, Report& report) {
  Phase phase;
  const std::size_t pool = in.maps.size();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (ms_since(start) >= seconds * 1000.0) break;
    const std::uint64_t op = first_op + i;
    const oftec::power::PowerMap& map = in.maps[op % pool];
    const double cal_before = calibration_ms();
    const Clock::time_point t0 = Clock::now();
    std::optional<core::CoolingSystem> system;
    core::OftecResult r;
    double build_ms = 0.0;
    double oftec_ms = 0.0;
    {
      const ScopedSpan span_op(tracer, "alg1.op", op);
      {
        const ScopedSpan span(tracer, "core.system_build", op);
        system.emplace(in.fp, map, in.leakage);
      }
      build_ms = ms_since(t0);
      const ScopedSpan span(tracer, "core.run_oftec", op);
      const Clock::time_point o0 = Clock::now();
      r = core::run_oftec(*system);
      oftec_ms = ms_since(o0);
    }
    const double op_ms = ms_since(t0);
    const double cal = 0.5 * (cal_before + calibration_ms());
    phase.ops.add(op_ms, cal);
    ++report.attempted;
    if (!r.success || !(r.max_chip_temperature <= system->t_max())) {
      report.fail("alg1 op " + std::to_string(op) +
                  ": infeasible or above T_max");
    } else if (op < pool) {
      phase.cooling_w.push_back(r.power.total());
    }
    if (!tracer.enabled()) continue;

    // Work counts, then the layer probes (outside the op's spans).
    phase.counts.push_back({system->engine().stats(), r.thermal_solves,
                            system->cache_hits(), system->evaluation_count()});
    phase.system_build.add(build_ms, cal);
    phase.oftec.add(oftec_ms, cal);
    const oftec::thermal::OperatingPoint points[] = {
        {system->omega_max() / 2.0, system->current_max() / 2.0},
        {r.omega, r.current}};
    oftec::thermal::SteadyResult at_decision;
    double point_ms = 0.0;
    for (const oftec::thermal::OperatingPoint& p : points) {
      const Clock::time_point s0 = Clock::now();
      at_decision = system->engine().solve(p);
      const double ms = ms_since(s0);
      phase.solve_point.add(ms, cal);
      point_ms += ms / 2.0;
    }
    const CgProbe cg = probe_cg(*system, r.omega, r.current,
                                at_decision.chip_temperatures);
    phase.cg.add(cg.ms, cal);
    phase.cg_iters.push_back(static_cast<double>(cg.iterations));
    const double thermal_ms = static_cast<double>(r.thermal_solves) * point_ms;
    phase.opt_share.push_back(std::max(0.0, oftec_ms - thermal_ms) / oftec_ms);
  }
  return phase;
}

}  // namespace

Report run_alg1(const Options& options, Tracer& tracer) {
  Report report;
  // Set-up is the inputs plus the checked Table-2 decisions, which also
  // serve as the warm-up.
  Timings setup;
  std::unique_ptr<Inputs> in;
  for (int k = 0; k < setup_repeats(options); ++k) {
    const double cal_before = calibration_ms();
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(options.seed);
    check_table2(*in, options, report);
    const double ms = ms_since(t0);
    setup.add(ms, 0.5 * (cal_before + calibration_ms()));
  }
  report.info["pool"] = static_cast<std::uint64_t>(in->maps.size());

  if (!options.trace) {
    const Phase phase = run_phase(*in, options.seconds, 0, tracer, report);
    report_closed_loop(report, setup, phase.ops, phase.cooling_w);
    return report;
  }

  // Traced run: half untraced, half traced, same pool; the p50 difference
  // is the tracing (and probing) overhead.
  const Phase plain = run_phase(*in, options.seconds / 2.0, 0, tracer, report);
  tracer.set_enabled(true);
  const Phase traced = run_phase(*in, options.seconds / 2.0,
                                 plain.ops.ms.size(), tracer, report);
  tracer.set_enabled(false);

  double points = 0, linear = 0, cg = 0, direct = 0, solves = 0, hits = 0,
         evals = 0;
  for (const OpCounts& c : traced.counts) {
    points += static_cast<double>(c.engine.points);
    linear += static_cast<double>(c.engine.linear_solves);
    cg += static_cast<double>(c.engine.cg_iterations);
    direct += static_cast<double>(c.engine.direct_fallbacks);
    solves += static_cast<double>(c.thermal_solves);
    hits += static_cast<double>(c.memo_hits);
    evals += static_cast<double>(c.evaluations);
  }
  const double ops = static_cast<double>(traced.counts.size());
  report.metric("la.cg_iters_per_solve", ratio(cg, linear), "count");
  report.metric("la.cg_solve_ms", median(traced.cg.ms), "ms");
  report.metric("thermal.solve_point_ms", median(traced.solve_point.ms), "ms");
  report.metric("thermal.newton_per_point", ratio(linear, points), "count");
  report.metric("thermal.direct_share", ratio(direct, linear), "ratio");
  report.metric("core.system_build_ms", median(traced.system_build.ms), "ms");
  report.metric("core.oftec_ms", median(traced.oftec.ms), "ms");
  report.metric("core.solves_per_decision", ratio(solves, ops), "count");
  report.metric("core.memo_hit_ratio", ratio(hits, hits + evals), "ratio");
  report.metric("opt.share", mean(traced.opt_share), "ratio");
  report_trace_overhead(report, plain.ops, traced.ops);
  report.info["estimated"].push_back("opt.share");
  report.info["probe_cg_iters_median"] = median(traced.cg_iters);
  return report;
}

}  // namespace perfbench
