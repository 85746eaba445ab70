// Section 6.2 / Ref. [8] extension: transient TEC over-drive. "TECs can
// improve the heat removal capacity ... for a short period of time (i.e.,
// order of a second) ... increase I* by about 1 A for 1 s to reap the
// benefit of transient cooling."
//
// From the Quicksort steady state at OFTEC's (ω*, I*), step the current to
// I* + 1 A for 1 s and record the chip-temperature trajectory against the
// constant-I* control run.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common.h"
#include "core/transient_boost.h"
#include "la/backend.h"
#include "tests/thermal/transient_oracle.h"
#include "thermal/transient_engine.h"
#include "util/stopwatch.h"
#include "util/units.h"

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Transient TEC boost (+1 A for 1 s, Ref. [8])",
               "the Peltier effect responds immediately while Joule heating "
               "arrives with the package RC delay — a 1 s overdrive buys "
               "transient cooling headroom");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort), fp);
  const core::CoolingSystem sys(fp, peak, paper_leakage(), {});

  const core::OftecResult star = core::run_oftec(sys);
  if (!star.success) {
    std::printf("unexpected: OFTEC infeasible on Quicksort\n");
    return 1;
  }
  std::printf("\nOperating point: w* = %s RPM, I* = %.2f A, steady Tmax = %s C\n",
              format_rpm(star.omega).c_str(), star.current,
              format_celsius(star.max_chip_temperature).c_str());

  core::BoostOptions opts;  // +1 A for 1 s, 2 s settle
  const core::BoostExperiment exp =
      core::run_transient_boost(sys, star.omega, star.current, opts);

  std::printf("\n  time [s]   boosted Tmax [C]   control Tmax [C]\n");
  std::printf("  ------------------------------------------------\n");
  for (std::size_t i = 0; i < exp.trace.samples.size(); i += 8) {
    const auto& b = exp.trace.samples[i];
    const auto& c = exp.control.samples[std::min(i, exp.control.samples.size() - 1)];
    std::printf("  %8.2f   %16.2f   %16.2f%s\n", b.time,
                units::kelvin_to_celsius(b.max_chip_temperature),
                units::kelvin_to_celsius(c.max_chip_temperature),
                b.time <= opts.boost_duration ? "   <- boost on" : "");
  }

  std::printf("\nTransient benefit: %.2f C below steady state "
              "(minimum at t = %.2f s)\n",
              exp.transient_benefit, exp.time_of_minimum);
  std::printf("Post-boost peak: %s C (steady: %s C) — Joule heat stored "
              "during the boost washes out.\n",
              format_celsius(exp.post_boost_peak).c_str(),
              format_celsius(exp.steady_temperature).c_str());

  // --- Engine-vs-reference timing on the control trajectory --------------
  // The reference is the transient oracle (tests/thermal/transient_oracle.h),
  // which assembles and factors the full step matrix at every step; the
  // engine solves the same steps by CG. Both take the exact leakage tangent
  // at every step.
  //
  // Timing discipline: one untimed warmup run per implementation, then
  // alternating timed repeats scored by minimum. A virgin process hands the
  // first large-allocation path a one-time advantage (glibc's mmap threshold
  // adapts after the first multi-MB free), which used to flatter whichever
  // implementation ran first; warmup + best-of-N measures steady state.
  int exit_code = 0;
  {
    thermal::TransientOptions topt = opts.transient;
    topt.duration = opts.boost_duration + opts.settle_duration;
    const thermal::ControlSetting setting{star.omega, star.current};
    const auto constant = [setting](double, double) { return setting; };
    const thermal::SteadyResult steady =
        sys.engine().solve({star.omega, star.current});
    constexpr int kRepeats = 3;

    const thermal::testing::TransientOracle reference(
        sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage(),
        topt);
    const thermal::TransientEngine engine(
        sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage(),
        topt);
    thermal::TransientResult ref =
        reference.run_closed_loop(constant, steady.temperatures);
    // The engine's stats accumulate over every run; the untimed warm-up run
    // from a fresh engine is the one whose work we report.
    thermal::TransientResult eng =
        engine.run_closed_loop(constant, steady.temperatures);
    const thermal::TransientEngineStats stats = engine.stats();
    double ref_ms = std::numeric_limits<double>::infinity();
    double eng_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kRepeats; ++rep) {
      const util::Stopwatch ref_watch;
      ref = reference.run_closed_loop(constant, steady.temperatures);
      ref_ms = std::min(ref_ms, ref_watch.elapsed_ms());
      const util::Stopwatch eng_watch;
      eng = engine.run_closed_loop(constant, steady.temperatures);
      eng_ms = std::min(eng_ms, eng_watch.elapsed_ms());
    }

    const double deviation = thermal::testing::max_deviation_k(ref, eng);
    const bool agrees = deviation <= thermal::testing::kEngineAgreementK;
    const double speedup = eng_ms > 0.0 ? ref_ms / eng_ms : 0.0;
    std::printf("\nreference %.1f ms, engine %.1f ms (%.1fx, best of %d; %zu "
                "factorizations, %.1f CG iterations per step over %zu "
                "steps; max deviation %.2g K, bound %.0e K)\n", ref_ms, eng_ms,
                speedup, kRepeats, stats.factorizations,
                static_cast<double>(stats.cg_iterations) /
                    static_cast<double>(std::max<std::size_t>(stats.steps, 1)),
                eng.steps, deviation, thermal::testing::kEngineAgreementK);
    util::json::Value j = util::json::Value::object();
    j["time_step_s"] = topt.time_step;
    j["backend"] = std::string(la::backend().name);
    j["timed_repeats"] = static_cast<std::size_t>(kRepeats);
    j["steps"] = eng.steps;
    j["reference_ms"] = ref_ms;
    j["engine_ms"] = eng_ms;
    j["speedup"] = speedup;
    j["engine_factorizations"] = stats.factorizations;
    j["engine_cg_iterations"] = stats.cg_iterations;
    j["max_deviation_k"] = deviation;
    j["within_bound"] = agrees;
    update_bench_artifact("transient_boost", j);

    // Gates: the stated bound against the oracle and no band factorization
    // (deterministic), and a wall-clock floor — the engine's CG step must
    // not lose to the reference's factorization (0.95 leaves room for
    // timer noise; each side's time is its best of kRepeats).
    if (!agrees) {
      std::printf("FAIL: the engine strays %.3g K from the reference (bound "
                  "%.0e K)\n", deviation, thermal::testing::kEngineAgreementK);
      exit_code = 1;
    }
    if (stats.factorizations != 0) {
      std::printf("FAIL: the engine factored %zu band matrices in %zu steps "
                  "(expected none)\n", stats.factorizations, eng.steps);
      exit_code = 1;
    }
    if (speedup < 0.95) {
      std::printf("FAIL: engine speedup %.3fx < 0.95x — the engine must "
                  "never be slower than the reference\n", speedup);
      exit_code = 1;
    }
  }
  return exit_code;
}
