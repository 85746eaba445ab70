// dtm_lut — the Sec. 6.2 deployment: LUT-driven dynamic thermal management,
// closed loop on one thread.
//
// Set-up builds a core::LutController from the eight MiBench peak maps (so
// setup_s carries the LUT build). One op is one core::run_dtm_loop call —
// LUT policy, 0.5-s control period, 10-ms step — over a seeded 0.5-s trace
// segment. Decisions are instant; nearly all the time goes to
// TransientStepper steps, i.e. la::BandedLu refactorizations and triangular
// solves. SQP and CG run only in set-up.
#include <memory>

#include "common.h"
#include "core/dtm_loop.h"
#include "core/lut_controller.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "probes.h"
#include "thermal/steady.h"
#include "thermal/transient_engine.h"
#include "workload/benchmarks.h"
#include "workload/trace.h"

namespace perfbench {

namespace core = oftec::core;
namespace thermal = oftec::thermal;
namespace workload = oftec::workload;

namespace {

constexpr double kTimeStep = 10e-3;
/// Segments per profile; the pool (8 × 8 = 64) is about half of one 25-s
/// run of ops.
constexpr std::size_t kPoolPerProfile = 8;

struct Inputs {
  oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  std::unique_ptr<core::LutController> lut;
  std::vector<workload::PowerTrace> segments;  ///< the op pool
  double lut_build_ms = 0.0;
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  std::vector<oftec::power::PowerMap> peaks;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    peaks.push_back(workload::peak_power_map(workload::profile_for(b), in->fp));
  }
  const Clock::time_point t0 = Clock::now();
  in->lut = std::make_unique<core::LutController>(core::LutController::build(
      peaks, in->fp, in->leakage, {}, {}, /*threads=*/1));
  in->lut_build_ms = ms_since(t0);

  in->segments = trace_windows(in->fp, seed, kPoolPerProfile);
  return in;
}

core::DtmOptions dtm_options(const core::LutController& lut) {
  core::DtmOptions o;
  o.policy = core::DtmPolicy::kLut;
  o.lut = &lut;
  o.control_period = 0.5;
  o.time_step = kTimeStep;
  return o;
}

/// Bit-level equality of two replays (control_time_ms is a wall time and is
/// left out).
bool identical(const core::DtmResult& a, const core::DtmResult& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const core::DtmSample& x = a.samples[i];
    const core::DtmSample& y = b.samples[i];
    if (!same_bits(x.time, y.time) ||
        !same_bits(x.max_chip_temperature, y.max_chip_temperature) ||
        !same_bits(x.omega, y.omega) || !same_bits(x.current, y.current) ||
        !same_bits(x.cooling_power, y.cooling_power) || x.tier != y.tier) {
      return false;
    }
  }
  return same_bits(a.peak_temperature, b.peak_temperature) &&
         same_bits(a.violation_time, b.violation_time) &&
         same_bits(a.average_cooling_power, b.average_cooling_power) &&
         same_bits(a.failsafe_time, b.failsafe_time) &&
         a.reoptimizations == b.reoptimizations && a.runaway == b.runaway &&
         a.status == b.status && a.fallback_decisions == b.fallback_decisions &&
         a.watchdog_trips == b.watchdog_trips;
}

struct Phase {
  Timings ops;
  std::vector<double> cooling_w;  ///< first pass over the pool
  // Traced phase only; times at reference host speed.
  std::size_t fallbacks = 0;
  Timings lookup, steady_init, step, factor;
  double factor_mflop = 0.0;
  std::size_t steps = 0;
  std::size_t factorizations = 0;
  std::size_t factor_hits = 0;
};

/// Layer probes for one op: the LUT lookup, the initial steady solve, and a
/// TransientStepper replay of the op's segment at the op's setting — the
/// calls run_dtm_loop makes, timed one by one. `cal` is the op's
/// calibration time.
void probe_op(const Inputs& in, const thermal::ThermalModel& model,
              const std::vector<oftec::power::ExponentialTerm>& leak,
              const workload::PowerTrace& segment, double cal, Phase& phase) {
  oftec::power::PowerMap window(in.fp);
  for (const oftec::power::PowerMap& s : segment.samples) window.max_with(s);
  constexpr int kLookups = 64;
  core::LutController::LookupResult hit;
  const Clock::time_point l0 = Clock::now();
  for (int k = 0; k < kLookups; ++k) hit = in.lut->lookup(window);
  phase.lookup.add(ms_since(l0) / kLookups, cal);

  std::vector<oftec::la::Vector> power;
  for (const oftec::power::PowerMap& s : segment.samples) {
    power.push_back(model.distribute(s));
  }
  const Clock::time_point s0 = Clock::now();
  const thermal::SteadyResult initial =
      thermal::SteadySolver(model, power[0], leak).solve(hit.omega, hit.current);
  phase.steady_init.add(ms_since(s0), cal);
  if (initial.status != oftec::SolveStatus::kOk) return;

  thermal::TransientStepper::Config cfg;
  cfg.runaway_check = thermal::RunawayCheck::kChipOnly;
  thermal::TransientStepper stepper(model, leak, cfg);
  stepper.reset(initial.temperatures);
  for (const oftec::la::Vector& p : power) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = stepper.step({hit.omega, hit.current}, p, kTimeStep);
    phase.step.add(ms_since(t0), cal);
    if (!ok) break;
  }
  phase.steps += stepper.steps();
  phase.factorizations += stepper.factorizations();
  phase.factor_hits += stepper.factor_hits();

  const FactorProbe lu =
      probe_step_lu(model, power[0], leak, hit.omega, hit.current,
                    initial.chip_temperatures, kTimeStep);
  phase.factor.add(lu.ms, cal);
  phase.factor_mflop = lu.mflop;
}

/// Closed loop over the pool until `seconds` have elapsed. Each op is
/// bracketed by calibration runs (see common.h).
Phase run_phase(const Inputs& in, double seconds, std::uint64_t first_op,
                Tracer& tracer, Report& report,
                std::vector<core::DtmResult>& first_results) {
  Phase phase;
  const core::DtmOptions opts = dtm_options(*in.lut);
  const std::size_t pool = in.segments.size();
  std::unique_ptr<thermal::ThermalModel> model;
  std::vector<oftec::power::ExponentialTerm> leak;
  if (tracer.enabled()) {
    model = std::make_unique<thermal::ThermalModel>(
        opts.system.package, in.fp, opts.system.grid_nx, opts.system.grid_ny);
    leak = model->cell_leakage(in.leakage);
  }
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    if (ms_since(start) >= seconds * 1000.0) break;
    const std::uint64_t op = first_op + i;
    const workload::PowerTrace& segment = in.segments[op % pool];
    const double cal_before = calibration_ms();
    const Clock::time_point t0 = Clock::now();
    core::DtmResult r;
    {
      const ScopedSpan span_op(tracer, "dtm_lut.op", op);
      const ScopedSpan span(tracer, "core.run_dtm_loop", op);
      r = core::run_dtm_loop(in.fp, segment, in.leakage, opts);
    }
    const double op_ms = ms_since(t0);
    const double cal = 0.5 * (cal_before + calibration_ms());
    phase.ops.add(op_ms, cal);
    ++report.attempted;
    if (r.runaway || r.status == core::ControlStatus::kRunaway ||
        r.samples.empty()) {
      report.fail("dtm_lut op " + std::to_string(op) + ": ran away");
      continue;
    }
    if (op < pool) {
      phase.cooling_w.push_back(r.average_cooling_power);
      if (op == 0) first_results.push_back(r);
    }
    if (!tracer.enabled()) continue;
    phase.fallbacks += r.fallback_decisions;
    probe_op(in, *model, leak, segment, cal, phase);
  }
  return phase;
}

/// Replay pool entry 0 once more; it must match its first replay bit for bit.
void check_repeat(const Inputs& in, const std::vector<core::DtmResult>& first,
                  Report& report) {
  if (first.empty()) return;
  ++report.attempted;
  const core::DtmResult again = core::run_dtm_loop(
      in.fp, in.segments[0], in.leakage, dtm_options(*in.lut));
  if (!identical(first.front(), again)) {
    report.fail("dtm_lut: repeated op 0 is not bit-identical");
  }
}

}  // namespace

Report run_dtm_lut(const Options& options, Tracer& tracer) {
  Report report;
  Timings setup;
  Timings lut_build;
  std::unique_ptr<Inputs> in;
  for (int k = 0; k < setup_repeats(options); ++k) {
    const double cal_before = calibration_ms();
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(options.seed);
    const double ms = ms_since(t0);
    const double cal = 0.5 * (cal_before + calibration_ms());
    setup.add(ms, cal);
    lut_build.add(in->lut_build_ms, cal);
  }
  for (const core::LutController::Entry& e : in->lut->entries()) {
    ++report.attempted;
    if (!e.feasible) report.fail("dtm_lut: infeasible LUT entry");
  }

  // Warm-up: two untimed ops.
  std::vector<core::DtmResult> first_results;
  for (std::size_t k = 0; k < 2; ++k) {
    (void)core::run_dtm_loop(in->fp, in->segments[k], in->leakage,
                             dtm_options(*in->lut));
  }
  report.info["pool"] = static_cast<std::uint64_t>(in->segments.size());

  if (!options.trace) {
    const Phase phase =
        run_phase(*in, options.seconds, 0, tracer, report, first_results);
    check_repeat(*in, first_results, report);
    report_closed_loop(report, setup, phase.ops, phase.cooling_w);
    return report;
  }

  const Phase plain = run_phase(*in, options.seconds / 2.0, 0, tracer, report,
                                first_results);
  tracer.set_enabled(true);
  const Phase traced = run_phase(*in, options.seconds / 2.0,
                                 plain.ops.ms.size(), tracer, report,
                                 first_results);
  tracer.set_enabled(false);
  check_repeat(*in, first_results, report);

  const double steps = static_cast<double>(traced.steps);
  report.metric("la.factor_ms", median(traced.factor.ms), "ms");
  report.metric("la.factor_mflop", traced.factor_mflop, "Mflop");
  report.metric("thermal.step_ms", median(traced.step.ms), "ms");
  report.metric("thermal.factorizations_per_step",
                ratio(static_cast<double>(traced.factorizations), steps),
                "count");
  report.metric("thermal.factor_hit_ratio",
                ratio(static_cast<double>(traced.factor_hits),
                      static_cast<double>(traced.factor_hits +
                                          traced.factorizations)),
                "ratio");
  report.metric("thermal.steady_init_ms", median(traced.steady_init.ms), "ms");
  report.metric("core.lut_build_s", median(lut_build.ms) / 1000.0, "s");
  report.metric("core.lut_lookup_us", median(traced.lookup.ms) * 1000.0,
                "us");
  report.metric("core.dtm_fallbacks", static_cast<double>(traced.fallbacks),
                "count");
  report_trace_overhead(report, plain.ops, traced.ops);
  report.info["computed"].push_back("la.factor_mflop");
  return report;
}

}  // namespace perfbench
