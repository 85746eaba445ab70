// Tier-2 parallel-scaling regression for TransientEngine::run_batch.
//
// The engine's batch path has no shared mutable state between jobs beyond a
// brief stepper checkout/checkin lock: each trace runs on its own stepper
// with its own workspaces, so four independent jobs on four cores should
// approach 4x over the serial loop. A historical BENCH_transient.json entry
// recorded 1.07x "scaling" — measured on a 1-core container, where 1.0x is
// the physical ceiling. This test encodes the real expectation (>= 2.5x on
// >= 4 hardware threads) and, on machines that cannot express it, skips
// with the reason in the log instead of recording a misleading number.
#include "thermal/transient_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/transient.h"
#include "util/stopwatch.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const ThermalModel& model() {
  static const ThermalModel m(package::PackageConfig::paper_default(), fp(),
                              6, 6);
  return m;
}

struct Workload {
  la::Vector dynamic;
  std::vector<power::ExponentialTerm> leak;
};

Workload make_workload(double watts) {
  power::PowerMap dyn(fp());
  for (std::size_t b = 0; b < fp().block_count(); ++b) {
    dyn.set(b, watts * fp().blocks()[b].area() / fp().die_area());
  }
  const auto leak_model =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return {model().distribute(dyn), model().cell_leakage(leak_model)};
}

TEST(TransientEngineScaling, RunBatchFourJobsScalesOnFourCores) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    GTEST_SKIP() << "hardware_concurrency=" << hw
                 << " < 4: run_batch cannot express parallel speedup on this "
                    "machine; scaling is asserted only where >= 4 hardware "
                    "threads exist";
  }

  const Workload w = make_workload(30.0);
  TransientOptions topt;
  topt.time_step = 5e-3;
  // The horizon sets the timed work: ≈0.1 s of batch wall time, so a
  // single host stall of a few tens of milliseconds (a shared VM) cannot
  // halve the measured ratio on its own. On the CG path a 5-ms step costs
  // ≈ 12 µs here, so that takes 5 000 steps per job.
  topt.duration = 25.0;

  TransientEngine::Config cfg;
  cfg.threads = 4;
  const TransientEngine engine(model(), w.dynamic, w.leak, topt, cfg);

  std::vector<TransientJob> jobs;
  for (int j = 0; j < 4; ++j) {
    TransientJob job;
    const double current = 1.0 + 0.1 * j;
    job.control = [current](double, double) {
      return ControlSetting{250.0, current};
    };
    job.initial_temperatures = engine.ambient_state();
    job.options = topt;
    jobs.push_back(std::move(job));
  }

  // Warm both paths (stepper pool, allocator arenas, thread pool). On a
  // shared VM the first ≈1.2 s of four-thread work after an idle or
  // single-threaded stretch runs 2–4× slower per thread, whatever the code
  // (a plain ALU loop shows it too), so the batch side keeps running for
  // kWarmupS before any pair is timed.
  constexpr double kWarmupS = 1.5;
  std::vector<TransientResult> serial(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    serial[j] = engine.run_closed_loop(jobs[j].control,
                                       jobs[j].initial_temperatures,
                                       jobs[j].options);
  }
  const util::Stopwatch warmup;
  while (warmup.elapsed_s() < kWarmupS) (void)engine.run_batch(jobs);

  // The speedup is the median over kRounds back-to-back (serial, batch)
  // pairs. Host contention on a shared VM can slow either side of a single
  // pair; the median ignores up to two disturbed pairs, while jobs that
  // serialize give batch ≈ serial in every pair.
  constexpr int kRounds = 5;
  std::vector<double> speedups;
  std::ostringstream rounds;
  for (int round = 0; round < kRounds; ++round) {
    const util::Stopwatch serial_watch;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      serial[j] = engine.run_closed_loop(jobs[j].control,
                                         jobs[j].initial_temperatures,
                                         jobs[j].options);
    }
    const double serial_ms = serial_watch.elapsed_ms();

    const util::Stopwatch batch_watch;
    const std::vector<TransientResult> batched = engine.run_batch(jobs);
    const double batch_ms = batch_watch.elapsed_ms();

    // Bit-identity is unconditional (a run depends only on its inputs).
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t j = 0; j < batched.size(); ++j) {
      ASSERT_EQ(batched[j].steps, serial[j].steps) << "job " << j;
      ASSERT_EQ(batched[j].samples.size(), serial[j].samples.size())
          << "job " << j;
      for (std::size_t i = 0; i < batched[j].samples.size(); ++i) {
        ASSERT_EQ(batched[j].samples[i].max_chip_temperature,
                  serial[j].samples[i].max_chip_temperature)
            << "job " << j << " sample " << i;
      }
    }

    speedups.push_back(batch_ms > 0.0 ? serial_ms / batch_ms : 0.0);
    rounds << " " << serial_ms << "/" << batch_ms;
  }

  std::nth_element(speedups.begin(), speedups.begin() + kRounds / 2,
                   speedups.end());
  const double speedup = speedups[kRounds / 2];
  RecordProperty("median_speedup_x100", static_cast<int>(100.0 * speedup));
  EXPECT_GE(speedup, 2.5)
      << "run_batch of 4 independent jobs on " << hw
      << " hardware threads achieved a median of only " << speedup
      << "x over the serial loop (serial/batch ms per round:" << rounds.str()
      << ") — jobs are serializing somewhere";
}

}  // namespace
}  // namespace oftec::thermal
