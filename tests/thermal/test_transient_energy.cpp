// First law on every transient step: the heat a step stores in the package
// equals the heat injected minus the heat leaving to ambient,
//
//   Σ Cᵢ·ΔTᵢ/Δt = P_dyn + Σ_chip [pᵢ(Tₙ) + aᵢ·ΔTᵢ] + P_TEC(Tₙ₊₁, I)
//                 − Q_amb(Tₙ₊₁, ω),
//
// where ΔT = Tₙ₊₁ − Tₙ, conduction cancels in the sum, and aᵢ = β·pᵢ(Tₙ) is
// the exact leakage slope the step matrix takes. The balance closes within
// 10⁻⁶ of the powers: the step's CG stops at a residual 10⁻⁶ of the
// unchanged state's, and Σ of the residual is the balance's error. The
// leakage value and its expansion point are the current state's at every
// step, so an error in the right-hand side (a sign, a stale expansion
// point) or in the step matrix breaks the balance.
//
// Every step of a 0.5-s, 10-ms replay of each benchmark's trace from
// ambient, at 0.6·ω_max and 1 A on the 8×8 and 10×10 grids. Every other
// branch of the model's operating-point stamps gets a 10×10 replay too:
// I = 0 (no Peltier or Joule terms), ω = 0 at 1 A (g(ω) on its
// natural-convection floor) and a fan-only package (no TEC array).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "thermal/transient_engine.h"
#include "workload/benchmarks.h"
#include "workload/trace.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

const power::LeakageModel& leakage() {
  static const power::LeakageModel l =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  return l;
}

const ThermalModel& model(std::size_t grid) {
  static const ThermalModel m8(package::PackageConfig::paper_default(), fp(),
                               8, 8);
  static const ThermalModel m10(package::PackageConfig::paper_default(), fp(),
                                10, 10);
  return grid == 8 ? m8 : m10;
}

const ThermalModel& fan_only_model() {
  static const ThermalModel m(
      package::PackageConfig::paper_default().without_tecs(), fp(), 10, 10);
  return m;
}

struct Case {
  std::string name;
  const ThermalModel* model;
  ControlSetting control;
};

std::vector<Case> cases() {
  const double omega = 0.6 * model(10).config().fan.max_speed;
  return {{"8x8", &model(8), {omega, 1.0}},
          {"10x10", &model(10), {omega, 1.0}},
          {"10x10, I = 0", &model(10), {omega, 0.0}},
          {"10x10, omega = 0", &model(10), {0.0, 1.0}},
          {"10x10, fan-only", &fan_only_model(), {omega, 1.0}}};
}

class BenchmarkTransientEnergyTest
    : public ::testing::TestWithParam<workload::Benchmark> {};

TEST_P(BenchmarkTransientEnergyTest, EveryStepBalancesEnergy) {
  constexpr double kDt = 10e-3;
  workload::TraceOptions topts;
  topts.sample_count = 50;
  topts.sample_interval = kDt;
  topts.seed = 1;
  const workload::PowerTrace trace =
      workload::generate_trace(workload::profile_for(GetParam()), fp(), topts);

  for (const Case& c : cases()) {
    const ThermalModel& m = *c.model;
    const NodeLayout& layout = m.layout();
    const std::vector<power::ExponentialTerm> leak = m.cell_leakage(leakage());
    const la::Vector& cap = m.capacitances();
    const ControlSetting setting = c.control;

    SCOPED_TRACE(c.name);
    TransientStepper stepper(m, leak);
    stepper.reset(la::Vector(layout.node_count(), m.config().ambient));

    for (std::size_t step = 0; step < trace.size(); ++step) {
      const la::Vector dynamic = m.distribute(trace.samples[step]);
      const la::Vector before = stepper.temperatures();
      ASSERT_TRUE(stepper.step(setting, dynamic, kDt)) << "step " << step;
      const la::Vector& after = stepper.temperatures();

      double stored = 0.0;
      for (std::size_t i = 0; i < before.size(); ++i) {
        stored += cap[i] * (after[i] - before[i]) / kDt;
      }
      double leak_power = 0.0;
      for (std::size_t cell = 0; cell < leak.size(); ++cell) {
        const std::size_t node = layout.node(Slab::kChip, cell);
        const double p = leak[cell].evaluate(before[node]);
        leak_power += p + leak[cell].beta * p * (after[node] - before[node]);
      }
      const double tec = m.tec_power(after, setting.current);
      const double outflow = m.ambient_outflow(after, setting.omega);
      const double injected = la::sum(dynamic) + leak_power + tec;

      EXPECT_NEAR(stored, injected - outflow,
                  1e-6 * (injected + std::abs(outflow)))
          << "step " << step;
    }
    // Every step was a CG solve.
    EXPECT_EQ(stepper.factorizations(), 0u);
    EXPECT_GE(stepper.cg_iterations(), stepper.steps());
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkTransientEnergyTest,
                         ::testing::ValuesIn(workload::all_benchmarks()),
                         [](const auto& info) {
                           return workload::benchmark_name(info.param);
                         });

}  // namespace
}  // namespace oftec::thermal
