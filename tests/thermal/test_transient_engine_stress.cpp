// Tier-2 concurrency stress for TransientEngine: hammers the stepper pool
// and run_batch fan-out from many threads at once and asserts that every run
// reproduces its single-threaded result bit for bit, within the oracle bound
// of transient_oracle.h. The CI thread-sanitizer job builds and runs this binary
// explicitly — data races in the pool or the shared stats atomics surface
// here rather than in production.
#include "thermal/transient_engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/transient.h"
#include "transient_oracle.h"

namespace oftec::thermal {
namespace {

using testing::kEngineAgreementK;
using testing::TransientOracle;

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

FeedbackControl constant_control(double omega, double current) {
  return [omega, current](double, double) {
    return ControlSetting{omega, current};
  };
}

void expect_identical(const TransientResult& a, const TransientResult& b) {
  ASSERT_EQ(a.runaway, b.runaway);
  ASSERT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    ASSERT_EQ(a.samples[i].time, b.samples[i].time);
    ASSERT_EQ(a.samples[i].max_chip_temperature,
              b.samples[i].max_chip_temperature);
    ASSERT_EQ(a.samples[i].tec_power, b.samples[i].tec_power);
    ASSERT_EQ(a.samples[i].fan_power, b.samples[i].fan_power);
    ASSERT_EQ(a.samples[i].leakage_power, b.samples[i].leakage_power);
  }
  ASSERT_EQ(a.final_temperatures.size(), b.final_temperatures.size());
  for (std::size_t i = 0; i < a.final_temperatures.size(); ++i) {
    ASSERT_EQ(a.final_temperatures[i], b.final_temperatures[i]);
  }
}

// Distinct settings so concurrent runs integrate distinct systems; the pool
// hands each thread its own stepper, so per-run results must match the
// single-threaded reference regardless of interleaving.
ControlSetting setting_for(std::size_t i) {
  const double omega = 200.0 + 50.0 * static_cast<double>(i % 5);
  const double current = 0.3 * static_cast<double>(i % 4);
  return {omega, current};
}

// Alternate the record stride, so steppers checked out of one pool serve
// runs with different options.
TransientOptions options_for(std::size_t i, TransientOptions opts) {
  opts.record_stride = i % 2 == 0 ? 1 : 3;
  return opts;
}

/// A single-threaded engine run, checked against the direct oracle.
TransientResult reference_run(const Workload& w, const TransientOptions& opts,
                              const ControlSetting& s, const la::Vector& init) {
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const TransientOracle oracle(model(), w.dynamic, w.leak, opts);
  TransientResult r =
      engine.run_closed_loop(constant_control(s.omega, s.current), init);
  EXPECT_LE(testing::max_deviation_k(
                r, oracle.run_closed_loop(constant_control(s.omega, s.current),
                                          init)),
            kEngineAgreementK);
  return r;
}

TEST(TransientEngineStress, ConcurrentClosedLoopRunsAreIsolated) {
  const Workload w = make_workload(24.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.2;
  const TransientEngine engine(model(), w.dynamic, w.leak, opts);
  const la::Vector init = engine.ambient_state();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRunsPerThread = 3;

  // Single-threaded references, one per distinct setting.
  std::vector<TransientResult> expected;
  for (std::size_t i = 0; i < kThreads; ++i) {
    expected.push_back(
        reference_run(w, options_for(i, opts), setting_for(i), init));
  }

  std::vector<std::thread> threads;
  std::vector<std::vector<TransientResult>> got(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &init, &got, &opts, t] {
      const ControlSetting s = setting_for(t);
      for (std::size_t r = 0; r < kRunsPerThread; ++r) {
        got[t].push_back(engine.run_closed_loop(
            constant_control(s.omega, s.current), init,
            options_for(t, opts)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRunsPerThread);
    for (const TransientResult& r : got[t]) expect_identical(expected[t], r);
  }

  const TransientEngineStats stats = engine.stats();
  EXPECT_EQ(stats.runs, kThreads * kRunsPerThread);
  EXPECT_GT(stats.steps, 0u);
}

TEST(TransientEngineStress, ConcurrentBatchesBitIdenticalToSerial) {
  const Workload w = make_workload(22.0);
  TransientOptions opts;
  opts.time_step = 10e-3;
  opts.duration = 0.15;
  const la::Vector init(model().layout().node_count(), 320.0);

  const auto make_jobs = [&] {
    std::vector<TransientJob> jobs(8);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const ControlSetting s = setting_for(i);
      jobs[i] = {constant_control(s.omega, s.current), init,
                 options_for(i / 2, opts)};
    }
    return jobs;
  };

  std::vector<TransientResult> serial;
  for (std::size_t i = 0; i < 8; ++i) {
    serial.push_back(
        reference_run(w, options_for(i / 2, opts), setting_for(i), init));
  }

  // Two engines batching concurrently from two caller threads each — pool
  // growth, checkout/checkin, and the stats atomics all contend.
  const TransientEngine engine_a(model(), w.dynamic, w.leak, opts);
  const TransientEngine engine_b(model(), w.dynamic, w.leak, opts);
  std::vector<std::thread> callers;
  std::vector<std::vector<TransientResult>> got(4);
  for (std::size_t c = 0; c < 4; ++c) {
    const TransientEngine& engine = (c % 2 == 0) ? engine_a : engine_b;
    callers.emplace_back(
        [&engine, &got, &make_jobs, c] { got[c] = engine.run_batch(make_jobs()); });
  }
  for (std::thread& t : callers) t.join();

  for (const std::vector<TransientResult>& batch : got) {
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical(serial[i], batch[i]);
    }
  }
}

}  // namespace
}  // namespace oftec::thermal
