#include "core/dtm_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dtm_pool.h"
#include "test_fixtures.h"
#include "workload/trace.h"

namespace oftec::core {
namespace {

using testing::coarse_config;
using testing::fp;
using testing::leakage;

workload::PowerTrace short_trace(workload::Benchmark b) {
  workload::TraceOptions opts;
  opts.sample_count = 60;
  opts.sample_interval = 0.05;  // 3 s total
  return workload::generate_trace(workload::profile_for(b), fp(), opts);
}

DtmOptions fast_options(DtmPolicy policy) {
  DtmOptions opts;
  opts.policy = policy;
  opts.system = coarse_config();
  opts.control_period = 1.0;
  opts.time_step = 25e-3;
  return opts;
}

TEST(DtmLoop, ValidatesInputs) {
  const workload::PowerTrace empty;
  EXPECT_THROW((void)run_dtm_loop(fp(), empty, leakage(), fast_options(
                                      DtmPolicy::kExactOftec)),
               std::invalid_argument);

  const workload::PowerTrace trace = short_trace(workload::Benchmark::kFft);
  DtmOptions lut_without_table = fast_options(DtmPolicy::kLut);
  EXPECT_THROW((void)run_dtm_loop(fp(), trace, leakage(), lut_without_table),
               std::invalid_argument);
  DtmOptions bad_period = fast_options(DtmPolicy::kStatic);
  bad_period.control_period = 0.0;
  EXPECT_THROW((void)run_dtm_loop(fp(), trace, leakage(), bad_period),
               std::invalid_argument);
}

TEST(DtmLoop, StaticPolicyHoldsOneSetting) {
  const workload::PowerTrace trace = short_trace(workload::Benchmark::kFft);
  const DtmResult r =
      run_dtm_loop(fp(), trace, leakage(), fast_options(DtmPolicy::kStatic));
  ASSERT_FALSE(r.runaway);
  EXPECT_EQ(r.reoptimizations, 1u);
  ASSERT_FALSE(r.samples.empty());
  const double omega0 = r.samples.front().omega;
  for (const DtmSample& s : r.samples) {
    EXPECT_DOUBLE_EQ(s.omega, omega0);
  }
  // Sized for the whole-trace max vector → never violates.
  EXPECT_DOUBLE_EQ(r.violation_time, 0.0);
}

TEST(DtmLoop, ExactPolicyReoptimizesEveryPeriod) {
  const workload::PowerTrace trace = short_trace(workload::Benchmark::kSusan);
  const DtmResult r = run_dtm_loop(fp(), trace, leakage(),
                                   fast_options(DtmPolicy::kExactOftec));
  ASSERT_FALSE(r.runaway);
  // 3 s of trace at a 1 s period → initial + 2 boundary decisions.
  EXPECT_EQ(r.reoptimizations, 3u);
  EXPECT_GT(r.control_time_ms, 0.0);
}

TEST(DtmLoop, AdaptivePolicyTracksPhasesCheaper) {
  // Susan has deep phases (depth 0.35): re-optimizing per window must spend
  // less average power than the static whole-trace-max setting, at equal
  // or negligible thermal cost.
  const workload::PowerTrace trace = short_trace(workload::Benchmark::kSusan);
  const DtmResult adaptive = run_dtm_loop(
      fp(), trace, leakage(), fast_options(DtmPolicy::kExactOftec));
  const DtmResult fixed =
      run_dtm_loop(fp(), trace, leakage(), fast_options(DtmPolicy::kStatic));
  ASSERT_FALSE(adaptive.runaway);
  ASSERT_FALSE(fixed.runaway);
  EXPECT_LE(adaptive.average_cooling_power,
            fixed.average_cooling_power + 0.05);
}

TEST(DtmLoop, LutPolicyIsFastAndSafe) {
  std::vector<power::PowerMap> training;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    training.push_back(testing::benchmark_power(b));
  }
  const LutController lut =
      LutController::build(training, fp(), leakage(), coarse_config());

  const workload::PowerTrace trace = short_trace(workload::Benchmark::kFft);
  DtmOptions opts = fast_options(DtmPolicy::kLut);
  opts.lut = &lut;
  const DtmResult r = run_dtm_loop(fp(), trace, leakage(), opts);
  ASSERT_FALSE(r.runaway);
  // Lookups are microseconds; whole control budget stays tiny.
  EXPECT_LT(r.control_time_ms, 50.0);
  EXPECT_LT(r.violation_time, 0.5);
}

/// `samples` trace samples of 0.1 s each.
workload::PowerTrace tenth_second_trace(std::size_t samples) {
  workload::TraceOptions opts;
  opts.sample_count = samples;
  opts.sample_interval = 0.1;
  return workload::generate_trace(
      workload::profile_for(workload::Benchmark::kFft), fp(), opts);
}

TEST(DtmLoop, InexactPeriodQuotientStillGivesWholePeriods) {
  // 0.3 / 0.1 is 2.9999999999999996 in floating point. Truncated, the
  // period shrank to two samples (re-optimizing every 0.2 s, plus spurious
  // boundaries from the truncated previous-sample index).
  DtmOptions opts = fast_options(DtmPolicy::kExactOftec);
  opts.control_period = 0.3;
  opts.time_step = 10e-3;
  const DtmResult r =
      run_dtm_loop(fp(), tenth_second_trace(30), leakage(), opts);
  ASSERT_FALSE(r.runaway);
  EXPECT_EQ(r.reoptimizations, 10u);  // one per 0.3 s over 3 s
}

TEST(DtmLoop, InexactTraceDurationStopsAtTheTraceEnd) {
  // Three 0.1-s samples last 0.30000000000000004 s; ceil() of that over
  // 10 ms ran a 31st step past the end of the trace.
  DtmOptions opts = fast_options(DtmPolicy::kExactOftec);
  opts.control_period = 0.3;
  opts.time_step = 10e-3;
  const DtmResult r =
      run_dtm_loop(fp(), tenth_second_trace(3), leakage(), opts);
  ASSERT_FALSE(r.runaway);
  ASSERT_FALSE(r.samples.empty());
  EXPECT_EQ(r.samples.back().time, 0.3);
  EXPECT_EQ(r.reoptimizations, 1u);  // the whole trace is one period
}

TEST(DtmLoop, ClampedFinalStepLandsOnTheTraceEnd) {
  // One 0.05-s sample at 20-ms steps: two full steps and a clamped 10-ms
  // one. Integrated at the full dt, the replay ended at 0.06 s.
  workload::TraceOptions topts;
  topts.sample_count = 1;
  topts.sample_interval = 0.05;
  const workload::PowerTrace trace = workload::generate_trace(
      workload::profile_for(workload::Benchmark::kFft), fp(), topts);
  DtmOptions opts = fast_options(DtmPolicy::kStatic);
  opts.time_step = 20e-3;
  const DtmResult r = run_dtm_loop(fp(), trace, leakage(), opts);
  ASSERT_FALSE(r.runaway);
  ASSERT_EQ(r.samples.size(), 3u);  // every step is recorded
  EXPECT_NEAR(r.samples.back().time, 0.05, 1e-12);
  EXPECT_LE(r.violation_time, 0.05 + 1e-12);
  EXPECT_LE(r.failsafe_time, 0.05 + 1e-12);
}

TEST(DtmLoop, SamplesCarryMonotoneTime) {
  const workload::PowerTrace trace = short_trace(workload::Benchmark::kCrc32);
  const DtmResult r =
      run_dtm_loop(fp(), trace, leakage(), fast_options(DtmPolicy::kStatic));
  ASSERT_FALSE(r.runaway);
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    EXPECT_GT(r.samples[i].time, r.samples[i - 1].time);
  }
  EXPECT_GE(r.peak_temperature, r.samples.front().max_chip_temperature);
}

TEST(DtmLoop, CgStepsTrackTheDirectOracleOnTheBenchmarkPool) {
  // The `dtm_lut` benchmark's seed-1 pool: 64 LUT-held 0.5-s segments at the
  // 10×10 model and 10-ms steps. A replay stays within the oracle bound of
  // the direct stepper at every sample and on every final node temperature,
  // factors no band, and run_dtm_loop takes the same steps.
  const testing::DtmPool pool = testing::make_dtm_pool(1, 8);
  ASSERT_EQ(pool.segments.size(), 64u);
  double worst = 0.0;
  std::size_t steps = 0;
  std::size_t cg_iterations = 0;
  std::size_t factorizations = 0;
  for (const testing::DtmSegment& segment : pool.segments) {
    ASSERT_FALSE(segment.initial.empty());
    const testing::DtmReplay cg = testing::replay(pool, segment, 10e-3);
    const testing::DtmReplay direct =
        testing::oracle_replay(pool, segment, 10e-3);
    ASSERT_FALSE(cg.runaway);
    ASSERT_FALSE(direct.runaway);
    ASSERT_EQ(cg.max_chip.size(), direct.max_chip.size());
    for (std::size_t i = 0; i < direct.max_chip.size(); ++i) {
      worst = std::max(worst, std::abs(cg.max_chip[i] - direct.max_chip[i]));
    }
    for (std::size_t i = 0; i < direct.final_temperatures.size(); ++i) {
      worst = std::max(worst, std::abs(cg.final_temperatures[i] -
                                       direct.final_temperatures[i]));
    }
    steps += cg.steps;
    cg_iterations += cg.cg_iterations;
    factorizations += cg.factorizations;
  }
  EXPECT_LE(worst, thermal::testing::kEngineAgreementK);
  EXPECT_EQ(factorizations, 0u);
  RecordProperty("worst_deviation_nK", static_cast<int>(worst * 1e9));
  RecordProperty("cg_iterations_per_step_x100",
                 static_cast<int>(100.0 * static_cast<double>(cg_iterations) /
                                  static_cast<double>(steps)));

  DtmOptions opts;
  opts.policy = DtmPolicy::kLut;
  opts.lut = pool.lut.get();
  opts.control_period = 0.5;
  opts.time_step = 10e-3;
  for (std::size_t k = 0; k < 8; ++k) {
    const testing::DtmSegment& segment = pool.segments[k];
    const DtmResult r = run_dtm_loop(fp(), segment.trace, leakage(), opts);
    const testing::DtmReplay cg = testing::replay(pool, segment, 10e-3);
    ASSERT_EQ(r.watchdog_trips, 0u) << k;
    ASSERT_EQ(r.samples.size(), cg.max_chip.size()) << k;
    for (std::size_t i = 0; i < cg.max_chip.size(); ++i) {
      EXPECT_EQ(r.samples[i].max_chip_temperature, cg.max_chip[i])
          << "segment " << k << ", sample " << i;
    }
  }
}

}  // namespace
}  // namespace oftec::core
