// Model-fidelity ablation (DESIGN.md): why the paper's leakage
// linearization (Eq. 4) matters, and how the steady engine's two linear
// solve paths compare on the same system.
//
//   (1) Leakage treatment: constant-at-ambient vs 10-point chord (paper)
//       vs exact Newton — compare predicted max temperature for Basicmath.
//   (2) Linear solver: la::BandedFactor (the engine's direct path) vs
//       column-preconditioned CG on IncrementalAssembler::assemble_csr (its
//       iterative path), on one Newton system.
#include <cstdio>

#include "common.h"
#include "la/banded_factor.h"
#include "la/column_jacobi.h"
#include "la/iterative.h"
#include "thermal/steady.h"
#include "util/stopwatch.h"
#include "util/units.h"

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Model ablation: leakage linearization & solver choice",
               "constant leakage underestimates the die temperature; the "
               "Eq. 4 chord tracks the exact exponential closely at ~zero "
               "extra cost");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kBasicmath), fp);

  const thermal::ThermalModel model(package::PackageConfig::paper_default(),
                                    fp, 10, 10);
  const la::Vector dyn = model.distribute(peak);
  const auto leak_terms = model.cell_leakage(paper_leakage());

  std::printf("\n(1) Leakage treatment at (2000 RPM, I = 0.5 A), Basicmath:\n");
  const double omega = units::rpm_to_rad_s(2000.0);
  struct ModeRow {
    const char* name;
    thermal::LeakageMode mode;
  };
  const ModeRow modes[] = {
      {"constant at ambient (no feedback)", thermal::LeakageMode::kConstant},
      {"10-pt chord regression (paper Eq. 4)",
       thermal::LeakageMode::kChordLinear},
      {"exact exponential (Newton)", thermal::LeakageMode::kNewtonExact},
  };
  double exact_temp = 0.0;
  for (const ModeRow& m : modes) {
    thermal::SteadyOptions opts;
    opts.mode = m.mode;
    const thermal::SteadySolver solver(model, dyn, leak_terms, opts);
    util::Stopwatch watch;
    const thermal::SteadyResult r = solver.solve(omega, 0.5);
    const double ms = watch.elapsed_ms();
    if (m.mode == thermal::LeakageMode::kNewtonExact) {
      exact_temp = r.max_chip_temperature;
    }
    std::printf("  %-38s Tmax = %6.2f C, leak = %5.2f W, "
                "%zu solve(s), %.1f ms\n",
                m.name, units::kelvin_to_celsius(r.max_chip_temperature),
                r.leakage_power, r.iterations, ms);
  }
  {
    thermal::SteadyOptions opts;
    opts.mode = thermal::LeakageMode::kConstant;
    const thermal::SteadySolver solver(model, dyn, leak_terms, opts);
    const thermal::SteadyResult r = solver.solve(omega, 0.5);
    std::printf("  -> constant-leakage model under-predicts by %.2f C\n",
                units::kelvin_to_celsius(exact_temp) -
                    units::kelvin_to_celsius(r.max_chip_temperature));
  }

  std::printf("\n(2) Linear solver on the assembled system "
              "(n = %zu, bandwidth = %zu):\n",
              model.layout().node_count(), model.layout().bandwidth());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (std::size_t i = 0; i < dyn.size(); ++i) {
    taylor[i] = power::tangent_linearize(leak_terms[i],
                                         model.config().ambient + 30.0);
  }
  const thermal::IncrementalAssembler assembler(model, dyn);
  const la::Vector cell_current(dyn.size(), 0.5);

  const thermal::AssembledSystem sys =
      assembler.assemble_banded(omega, cell_current, taylor);
  util::Stopwatch direct_watch;
  const la::BandedFactor factor(sys.matrix);
  const la::Vector x_direct = factor.solve(sys.rhs);
  const double direct_ms = direct_watch.elapsed_ms();

  // Cold CG at the engine's polish tolerance; the column factor is part of
  // the iterative path's cost.
  thermal::CsrSystem csr;
  assembler.assemble_csr(omega, cell_current, taylor, csr);
  const la::ColumnBlockSymbolic columns = assembler.column_structure();
  util::Stopwatch iter_watch;
  la::ColumnBlockJacobi column;
  la::IterativeOptions iopts;
  iopts.tolerance = thermal::SteadyOptions{}.iterative_tolerance;
  iopts.max_iterations = 4 * csr.rhs.size();
  if (column.factor(columns, csr.matrix)) iopts.preconditioner = &column;
  const la::IterativeResult it = la::solve_cg(csr.matrix, csr.rhs, iopts);
  const double iter_ms = iter_watch.elapsed_ms();

  std::printf("  %-26s %.2f ms\n",
              factor.kind() == la::BandedFactor::Kind::kCholesky
                  ? "BandedFactor (Cholesky):"
                  : "BandedFactor (pivoted LU):",
              direct_ms);
  std::printf("  %-26s %.2f ms, %zu iterations, converged=%s, "
              "max |dx| vs direct = %.2e K\n",
              "column-Jacobi CG:", iter_ms, it.iterations,
              it.converged ? "yes" : "NO", la::max_abs_diff(it.x, x_direct));
  return 0;
}
