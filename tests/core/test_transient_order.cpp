// Tier-2 checks of the transient step on the `dtm_lut` segments (seed 1, one
// segment per MiBench profile, 10×10 model, LUT setting held for 0.5 s).
//
// Observed order. Backward Euler on the exact leakage tangent is first
// order, and the CG stop rule (thermal::TransientStepper::kStepTolerance,
// relative to each step's own change) must not spoil that: against a
// fine-step reference the mean per-sample max-chip error must fall by
// ≥ 1.7× per halving of dt from 10 to 5 to 2.5 ms (the asymptotic ratio is
// 2). The reference is Richardson extrapolation 2·T(dt/2) − T(dt) of two
// runs at 0.1 and 0.05 ms.
//
// Fine grids. A 32×32 run_dtm_loop replay takes no band factorization: at
// n = 9219 with bandwidth 1025 one costs about a second, so the DTM loop
// runs at fine grids only on the CG path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/dtm_loop.h"
#include "dtm_pool.h"
#include "util/obs.h"

namespace oftec::core {
namespace {

using Samples = std::vector<std::vector<double>>;  // [segment][sample]

Samples replay_all(const testing::DtmPool& pool, double dt) {
  Samples out;
  for (const testing::DtmSegment& segment : pool.segments) {
    const testing::DtmReplay r = testing::replay(pool, segment, dt);
    EXPECT_FALSE(r.runaway) << "dt " << dt;
    EXPECT_EQ(r.factorizations, 0u) << "dt " << dt;
    out.push_back(r.max_chip);
  }
  return out;
}

double mean_abs_diff(const Samples& a, const Samples& b) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].size(), b[k].size());
    for (std::size_t i = 0; i < a[k].size() && i < b[k].size(); ++i) {
      sum += std::abs(a[k][i] - b[k][i]);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

TEST(TransientOrder, CgStepStaysFirstOrder) {
  const testing::DtmPool pool = testing::make_dtm_pool(1, 1);
  ASSERT_EQ(pool.segments.size(), 8u);

  const Samples coarse = replay_all(pool, 0.1e-3);
  Samples reference = replay_all(pool, 0.05e-3);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    for (std::size_t i = 0; i < reference[k].size(); ++i) {
      reference[k][i] = 2.0 * reference[k][i] - coarse[k][i];
    }
  }

  std::vector<double> error;
  for (const double dt : {10e-3, 5e-3, 2.5e-3}) {
    error.push_back(mean_abs_diff(replay_all(pool, dt), reference));
  }
  for (std::size_t h = 0; h + 1 < error.size(); ++h) {
    SCOPED_TRACE("halving " + std::to_string(h + 1));
    EXPECT_GE(error[h] / error[h + 1], 1.7)
        << error[h] << " K -> " << error[h + 1] << " K";
  }
}

TEST(TransientOrder, Grid32DtmReplayFactorsNoBand) {
  // A LUT built from two peak maps at the default grid keeps the set-up to
  // the LUT build and one steady solve at 32×32; the replay is one 0.5-s
  // Basicmath segment, which the looked-up setting keeps below T_max.
  const std::vector<power::PowerMap> peaks = {
      testing::benchmark_power(workload::Benchmark::kQuicksort),
      testing::benchmark_power(workload::Benchmark::kSusan)};
  const LutController lut =
      LutController::build(peaks, testing::fp(), testing::leakage(), {}, {}, 1);
  workload::TraceOptions topts;
  topts.sample_count = 50;
  topts.sample_interval = testing::kDtmSampleInterval;
  topts.seed = 1;
  const workload::PowerTrace trace = workload::generate_trace(
      workload::profile_for(workload::Benchmark::kBasicmath), testing::fp(),
      topts);

  DtmOptions opts;
  opts.policy = DtmPolicy::kLut;
  opts.lut = &lut;
  opts.control_period = 0.5;
  opts.time_step = 10e-3;
  opts.system.grid_nx = 32;
  opts.system.grid_ny = 32;

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  const DtmResult r = run_dtm_loop(testing::fp(), trace, testing::leakage(),
                                   opts);
  const obs::Snapshot cost = obs::delta(before, obs::snapshot());
  obs::set_enabled(was_enabled);

  ASSERT_FALSE(r.runaway);
  EXPECT_EQ(r.status, ControlStatus::kOk);
  const std::uint64_t steps = topts.sample_count;  // one 10-ms step each
  EXPECT_EQ(cost.counters.at("dtm.step_factorizations"), 0u);
  EXPECT_EQ(cost.counters.at("dtm.step_lu_fallbacks"), 0u);
  const std::uint64_t cg = cost.counters.at("dtm.step_cg_iterations");
  EXPECT_GE(cg, steps);
  const double per_step =
      static_cast<double>(cg) / static_cast<double>(steps);
  std::printf("32x32 replay: %.1f CG iterations per step\n", per_step);
  RecordProperty("cg_iterations_per_step_x10",
                 static_cast<int>(10.0 * per_step));
}

}  // namespace
}  // namespace oftec::core
