// Online DTM loop (Sec. 6.2 deployment story): replay a phase-structured
// Susan trace through the transient model under three control policies —
//   static  : one OFTEC run on the whole-trace max vector, held forever;
//   exact   : re-run OFTEC every control period on the upcoming window;
//   LUT     : nearest-neighbor lookup every period (pre-trained on the
//             eight benchmark vectors).
// Compares thermal safety, average cooling power, and control latency —
// the trade space the paper's LUT proposal targets.
//
// `--smoke` runs a shrunk configuration (short trace, fewer policies, small
// LUT) intended for CI: fast, but still touching every instrumented layer so
// the emitted OFTEC_OBS report/trace artifacts are representative (see
// tools/run_obs_smoke.cmake).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/dtm_loop.h"
#include "la/backend.h"
#include "tests/thermal/transient_oracle.h"
#include "thermal/transient_engine.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/units.h"
#include "workload/trace.h"

namespace {

/// Field-for-field equality of two transient results (== on doubles — exact
/// bit agreement for the finite values these runs produce): two runs of the
/// engine on the same inputs.
bool results_identical(const oftec::thermal::TransientResult& a,
                       const oftec::thermal::TransientResult& b) {
  if (a.runaway != b.runaway || a.steps != b.steps ||
      a.samples.size() != b.samples.size() ||
      a.final_temperatures.size() != b.final_temperatures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& s = a.samples[i];
    const auto& t = b.samples[i];
    if (s.time != t.time ||
        s.max_chip_temperature != t.max_chip_temperature ||
        s.tec_power != t.tec_power || s.fan_power != t.fan_power ||
        s.leakage_power != t.leakage_power) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.final_temperatures.size(); ++i) {
    if (a.final_temperatures[i] != b.final_temperatures[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oftec;
  using namespace oftec::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header("Online DTM loop: static vs exact-OFTEC vs LUT control",
               "OFTEC is fast enough for online control; the LUT serves the "
               "same decisions in microseconds at a small optimality loss");

  const floorplan::Floorplan& fp = paper_floorplan();

  // 10 s of Susan: the deepest phase structure in the suite (2 s in smoke
  // mode).
  workload::TraceOptions topt;
  topt.sample_count = smoke ? 40 : 200;
  topt.sample_interval = 0.05;
  const workload::PowerTrace trace = workload::generate_trace(
      workload::profile_for(workload::Benchmark::kSusan), fp, topt);

  std::vector<power::PowerMap> training;
  std::size_t n_training = 0;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    training.push_back(
        workload::peak_power_map(workload::profile_for(b), fp));
    // Smoke: 3 training maps keep the build under a second while still
    // fanning the per-entry OFTEC runs across the pool.
    if (smoke && ++n_training == 3) break;
  }
  const core::LutController lut = core::LutController::build(
      training, fp, paper_leakage(), {}, {},
      smoke ? util::ThreadPool::default_thread_count() : 1);

  struct PolicyRow {
    const char* name;
    core::DtmPolicy policy;
  };
  std::vector<PolicyRow> policies = {
      {"static (whole-trace max)", core::DtmPolicy::kStatic},
      {"exact OFTEC / 1 s", core::DtmPolicy::kExactOftec},
      {"LUT lookup / 1 s", core::DtmPolicy::kLut},
  };
  if (smoke) {
    policies = {{"exact OFTEC", core::DtmPolicy::kExactOftec},
                {"LUT lookup", core::DtmPolicy::kLut}};
  }
  const double control_period = smoke ? 0.5 : 1.0;

  std::printf("\nTrace: Susan, %.0f s, %zu samples; control period %.1f s; "
              "Tmax = 90 C.\n\n", trace.duration(), trace.size(),
              control_period);
  std::printf("  %-26s %-9s %-12s %-10s %-12s %-8s\n", "policy", "peak [C]",
              "t>Tmax [s]", "avg P [W]", "ctrl [ms]", "re-opts");
  std::printf("  ------------------------------------------------------------"
              "-------\n");

  for (const PolicyRow& p : policies) {
    core::DtmOptions opts;
    opts.policy = p.policy;
    opts.control_period = control_period;
    opts.time_step = smoke ? 20e-3 : 10e-3;
    if (p.policy == core::DtmPolicy::kLut) opts.lut = &lut;
    const core::DtmResult r =
        core::run_dtm_loop(fp, trace, paper_leakage(), opts);
    if (r.runaway) {
      std::printf("  %-26s RUNAWAY\n", p.name);
      continue;
    }
    std::printf("  %-26s %9.2f %12.2f %10.2f %12.0f %8zu\n", p.name,
                units::kelvin_to_celsius(r.peak_temperature),
                r.violation_time, r.average_cooling_power, r.control_time_ms,
                r.reoptimizations);
  }

  // --- Transient engine vs the transient oracle --------------------------
  // The DTM loop's dominant cost is the transient step. Hold the static
  // policy's constant setting over the whole trace horizon and integrate it
  // twice — the transient oracle (tests/thermal/transient_oracle.h: assemble
  // + factor every step) vs TransientEngine (CG on the same steps). Gates:
  // the engine stays within the oracle bound and factors no band, and
  // run_batch reproduces the serial runs bit for bit.
  int exit_code = 0;
  {
    power::PowerMap peak(fp);
    for (const power::PowerMap& s : trace.samples) peak.max_with(s);
    const core::CoolingSystem sys(fp, peak, paper_leakage(), {});
    const core::OftecResult star = core::run_oftec(sys);
    const thermal::ControlSetting setting =
        star.success ? thermal::ControlSetting{star.omega, star.current}
                     : thermal::ControlSetting{sys.omega_max(), 0.0};

    thermal::TransientOptions topt;
    topt.time_step = smoke ? 20e-3 : 10e-3;
    topt.duration = trace.duration();
    topt.record_stride = 8;

    const thermal::testing::TransientOracle reference(
        sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage(),
        topt);
    const thermal::TransientEngine engine(
        sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage(),
        topt);
    const la::Vector init = reference.ambient_state();
    const auto constant = [setting](double, double) { return setting; };

    const util::Stopwatch ref_watch;
    const thermal::TransientResult ref = reference.run_closed_loop(
        constant, init);
    const double ref_ms = ref_watch.elapsed_ms();
    const util::Stopwatch eng_watch;
    const thermal::TransientResult eng = engine.run_closed_loop(
        constant, init);
    const double eng_ms = eng_watch.elapsed_ms();

    const double deviation = thermal::testing::max_deviation_k(ref, eng);
    const bool agrees = deviation <= thermal::testing::kEngineAgreementK;
    const thermal::TransientEngineStats stats = engine.stats();
    const double ref_sps = ref_ms > 0.0
        ? static_cast<double>(ref.steps) / (ref_ms / 1e3) : 0.0;
    const double eng_sps = eng_ms > 0.0
        ? static_cast<double>(eng.steps) / (eng_ms / 1e3) : 0.0;
    const double speedup = eng_ms > 0.0 ? ref_ms / eng_ms : 0.0;

    std::printf("\nTransient engine (constant control, %zu steps):\n",
                ref.steps);
    std::printf("  reference: %8.1f ms  (%10.0f steps/s)\n", ref_ms, ref_sps);
    std::printf("  engine:    %8.1f ms  (%10.0f steps/s)  "
                "%zu factorizations, %.1f CG iterations per step\n", eng_ms,
                eng_sps, stats.factorizations,
                static_cast<double>(stats.cg_iterations) /
                    static_cast<double>(std::max<std::size_t>(stats.steps, 1)));
    std::printf("  speedup: %.1fx, max deviation %.2g K (bound %.0e K)\n",
                speedup, deviation, thermal::testing::kEngineAgreementK);

    util::json::Value j = util::json::Value::object();
    j["steps"] = ref.steps;
    j["time_step_s"] = topt.time_step;
    j["reference_ms"] = ref_ms;
    j["engine_ms"] = eng_ms;
    j["reference_steps_per_s"] = ref_sps;
    j["engine_steps_per_s"] = eng_sps;
    j["speedup"] = speedup;
    j["engine_factorizations"] = stats.factorizations;
    j["engine_cg_iterations"] = stats.cg_iterations;
    j["max_deviation_k"] = deviation;
    j["within_bound"] = agrees;
    update_bench_artifact("dtm_constant_control", j);
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

    // run_batch: the same trace fanned as independent jobs across the pool.
    // On a shared VM the first ≈1.2 s of concurrent work that follows
    // seconds of single-threaded work runs 2–4× slower per thread (a plain
    // ALU loop shows it too), so an untimed batch of at least kWarmupS
    // comes first, and the speedup is the median over kPairs alternating
    // (serial, batch) pairs. A job's time inside the batch runs from its
    // first to its last control call (all but its final step).
    constexpr double kWarmupS = 1.5;
    constexpr int kPairs = 5;
    const std::size_t n_jobs = smoke ? 2 : 4;
    struct Span {
      double first_ms = -1.0;
      double last_ms = 0.0;
    };
    std::vector<Span> spans(n_jobs);
    const util::Stopwatch clock;
    std::vector<thermal::TransientJob> jobs(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      jobs[i].control = [&clock, span = &spans[i], setting](double, double) {
        span->last_ms = clock.elapsed_ms();
        if (span->first_ms < 0.0) span->first_ms = span->last_ms;
        return setting;
      };
      jobs[i].initial_temperatures = init;
      jobs[i].options = topt;
    }
    const util::Stopwatch warmup_watch;
    while (warmup_watch.elapsed_s() < kWarmupS) (void)engine.run_batch(jobs);
    const double warmup_s = warmup_watch.elapsed_s();

    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    std::vector<double> serial_ms, batch_ms, speedups;
    util::json::Value serial_job_ms = util::json::Value::array();
    util::json::Value batch_job_ms = util::json::Value::array();
    util::json::Value batch_job_start_ms = util::json::Value::array();
    bool batch_identical = true;
    for (int pair = 0; pair < kPairs; ++pair) {
      util::json::Value serial_jobs = util::json::Value::array();
      std::vector<thermal::TransientResult> serial;
      const util::Stopwatch serial_watch;
      for (const thermal::TransientJob& job : jobs) {
        const util::Stopwatch job_watch;
        serial.push_back(engine.run_closed_loop(job.control,
                                                job.initial_temperatures,
                                                job.options));
        serial_jobs.push_back(job_watch.elapsed_ms());
      }
      serial_ms.push_back(serial_watch.elapsed_ms());

      spans.assign(n_jobs, Span{});
      const double batch_start_ms = clock.elapsed_ms();
      const std::vector<thermal::TransientResult> batched =
          engine.run_batch(jobs);
      batch_ms.push_back(clock.elapsed_ms() - batch_start_ms);
      speedups.push_back(serial_ms.back() / batch_ms.back());

      util::json::Value batch_jobs = util::json::Value::array();
      util::json::Value batch_starts = util::json::Value::array();
      for (std::size_t i = 0; i < n_jobs; ++i) {
        batch_identical =
            batch_identical && results_identical(serial[i], batched[i]);
        batch_jobs.push_back(spans[i].last_ms - spans[i].first_ms);
        batch_starts.push_back(spans[i].first_ms - batch_start_ms);
      }
      serial_job_ms.push_back(std::move(serial_jobs));
      batch_job_ms.push_back(std::move(batch_jobs));
      batch_job_start_ms.push_back(std::move(batch_starts));
    }
    const double batch_speedup = median(speedups);
    std::printf("  run_batch (%zu jobs, median of %d pairs after a %.1f-s "
                "warm-up batch): serial %.1f ms, batched %.1f ms, %.2fx, "
                "bit-identical: %s\n", n_jobs, kPairs, warmup_s,
                median(serial_ms), median(batch_ms), batch_speedup,
                batch_identical ? "yes" : "NO (BUG)");

    util::json::Value jb = util::json::Value::object();
    jb["jobs"] = n_jobs;
    jb["pairs"] = kPairs;
    jb["warmup_s"] = warmup_s;
    jb["serial_ms"] = median(serial_ms);
    jb["batch_ms"] = median(batch_ms);
    jb["speedup"] = batch_speedup;
    jb["serial_job_ms"] = std::move(serial_job_ms);
    jb["batch_job_ms"] = std::move(batch_job_ms);
    jb["batch_job_start_ms"] = std::move(batch_job_start_ms);
    jb["bit_identical"] = batch_identical;
    if (!batch_identical) {
      std::printf("FAIL: run_batch differs from the serial runs\n");
      exit_code = 1;
    }
    // Scaling context: a 1.07x "speedup" on hardware_concurrency=1 is the
    // physical ceiling, not a regression — interpret the number against the
    // machine it was measured on (the tier-2 scaling test asserts >= 2.5x
    // only where >= 4 hardware threads exist).
    const auto hw =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    jb["hardware_concurrency"] = hw;
    jb["pool_threads"] = util::ThreadPool::default_thread_count();
    jb["backend"] = std::string(la::backend().name);
    if (hw < 4) {
      // Make the artifact self-describing so a 1.0x number measured on a
      // starved runner is never read as a parallel-scaling regression.
      const std::string stale =
          "STALE: measured at hardware_concurrency=" + std::to_string(hw) +
          " — run_batch speedup is capped at ~1x here; refresh this section "
          "on a >=4-hardware-thread runner (the tier-2 scaling test asserts "
          ">=2.5x there)";
      jb["context"] = stale;
      std::printf("  WARNING %s\n", stale.c_str());
    }
    update_bench_artifact("run_batch", jb);
  }

  std::printf("\nReading: per-window re-optimization rides the trace's "
              "phases below the static setting's power; the LUT serves the "
              "same decisions with ~1000x less control latency, paying a "
              "small safety/optimality margin — exactly the paper's "
              "proposed deployment.\n");
  return exit_code;
}
