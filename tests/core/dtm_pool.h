// The `dtm_lut` benchmark's pool of replays, rebuilt from the library for
// tests that judge the transient integrator on the work that benchmark
// times: per MiBench profile, 0.5-s windows of 10-ms trace samples at the
// paper's 10×10 grid, each held at the LUT setting of its window's per-unit
// max and started from the steady state of its first sample — what
// run_dtm_loop does under the LUT policy with a 0.5-s control period. The
// draw matches the benchmark's seeded pool (perfbench/harness/common.cpp,
// trace_windows), so seed 1 here is seed 1 there.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "../thermal/transient_oracle.h"
#include "core/lut_controller.h"
#include "test_fixtures.h"
#include "thermal/steady.h"
#include "thermal/transient_engine.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace oftec::core::testing {

inline constexpr double kDtmSampleInterval = 10e-3;  ///< [s]

struct DtmSegment {
  workload::PowerTrace trace;
  thermal::ControlSetting setting;
  std::vector<la::Vector> power;  ///< per trace sample, per chip cell [W]
  la::Vector initial;             ///< steady state under the first sample
};

struct DtmPool {
  std::unique_ptr<LutController> lut;
  std::unique_ptr<thermal::ThermalModel> model;
  std::vector<power::ExponentialTerm> leak;
  std::vector<DtmSegment> segments;
};

/// `per_profile` rounds over the eight profiles: each draws a 200-sample
/// trace and one 50-sample window of it.
inline DtmPool make_dtm_pool(std::uint64_t seed, std::size_t per_profile) {
  constexpr std::size_t kTraceSamples = 200;
  constexpr std::size_t kWindowSamples = 50;
  DtmPool pool;
  std::vector<power::PowerMap> peaks;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    peaks.push_back(benchmark_power(b));
  }
  const CoolingSystem::Config config;
  pool.lut = std::make_unique<LutController>(
      LutController::build(peaks, fp(), leakage(), config, {}, 1));
  pool.model = std::make_unique<thermal::ThermalModel>(
      config.package, fp(), config.grid_nx, config.grid_ny);
  pool.leak = pool.model->cell_leakage(leakage());

  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA1);
  for (std::size_t w = 0; w < per_profile; ++w) {
    for (const workload::Benchmark b : workload::all_benchmarks()) {
      workload::TraceOptions topts;
      topts.sample_count = kTraceSamples;
      topts.sample_interval = kDtmSampleInterval;
      topts.seed = rng.next_u64();
      const workload::PowerTrace trace =
          workload::generate_trace(workload::profile_for(b), fp(), topts);
      const auto start = static_cast<long>(
          rng.uniform_index(kTraceSamples - kWindowSamples + 1));
      DtmSegment segment;
      segment.trace.sample_interval = trace.sample_interval;
      segment.trace.samples.assign(trace.samples.begin() + start,
                                   trace.samples.begin() + start +
                                       kWindowSamples);
      power::PowerMap window(fp());
      for (const power::PowerMap& s : segment.trace.samples) {
        window.max_with(s);
        segment.power.push_back(pool.model->distribute(s));
      }
      const LutController::LookupResult hit = pool.lut->lookup(window);
      segment.setting = {hit.omega, hit.current};
      segment.initial = thermal::SteadySolver(*pool.model, segment.power[0],
                                              pool.leak, config.steady)
                            .solve(hit.omega, hit.current)
                            .temperatures;
      pool.segments.push_back(std::move(segment));
    }
  }
  return pool;
}

struct DtmReplay {
  std::vector<double> max_chip;  ///< at the end of each trace sample [K]
  la::Vector final_temperatures;
  std::size_t steps = 0;
  std::size_t cg_iterations = 0;
  std::size_t factorizations = 0;
  bool runaway = false;
};

/// Replay `segment` at step `dt` (a divisor of the sample interval), as
/// run_dtm_loop's stepper does.
inline DtmReplay replay(const DtmPool& pool, const DtmSegment& segment,
                        double dt) {
  thermal::TransientStepper::Config cfg;
  cfg.runaway_check = thermal::RunawayCheck::kChipOnly;
  thermal::TransientStepper stepper(*pool.model, pool.leak, cfg);
  stepper.reset(segment.initial);
  const auto substeps =
      static_cast<std::size_t>(std::lround(kDtmSampleInterval / dt));
  DtmReplay r;
  for (const la::Vector& p : segment.power) {
    for (std::size_t k = 0; k < substeps; ++k) {
      if (!stepper.step(segment.setting, p, dt)) {
        r.runaway = true;
        return r;
      }
    }
    r.max_chip.push_back(stepper.max_chip_temperature());
  }
  r.final_temperatures = stepper.temperatures();
  r.steps = stepper.steps();
  r.cg_iterations = stepper.cg_iterations();
  r.factorizations = stepper.factorizations();
  return r;
}

/// The same replay on the direct oracle (thermal/transient_oracle.h), one
/// trace sample at a time.
inline DtmReplay oracle_replay(const DtmPool& pool, const DtmSegment& segment,
                               double dt) {
  thermal::TransientOptions opts;
  opts.time_step = dt;
  opts.duration = kDtmSampleInterval;
  const auto constant = [&segment](double) { return segment.setting; };
  DtmReplay r;
  r.final_temperatures = segment.initial;
  for (const la::Vector& p : segment.power) {
    const thermal::testing::TransientOracle oracle(*pool.model, p, pool.leak,
                                                   opts);
    const thermal::TransientResult step =
        oracle.run(constant, r.final_temperatures);
    if (step.runaway) {
      r.runaway = true;
      return r;
    }
    r.final_temperatures = step.final_temperatures;
    r.max_chip.push_back(step.samples.back().max_chip_temperature);
    r.steps += step.steps;
  }
  return r;
}

}  // namespace oftec::core::testing
