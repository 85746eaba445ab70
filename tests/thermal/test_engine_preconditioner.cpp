// SolveEngine's CG runs under the z-column block-Jacobi preconditioner with
// its coarse level (la/column_jacobi.h). On the paper's 10×10 model, over
// the eight MiBench peak maps and a 6×6 (ω, I) grid:
//   - answers stay within 1e-3 K of the Newton oracle (newton_oracle.h);
//   - a cold CG on every assembled Newton system takes at most 0.6× the
//     iterations it takes under diagonal Jacobi, with no more direct
//     fallbacks, and at most 0.5× those under column blocks alone;
//   - the engine averages at most 10 CG iterations per linear solve (a
//     bound, not a count: scalar and simd backends differ in ULPs).
// The coarse level's two slab groups (the sink, the eight slabs below it)
// keep the cold-CG iterations of three groups (the spreader split off too)
// within one, at 6×6, 10×10 and 16×16. And because solve_batch's
// thread-local workspace is shared by every engine on a thread, batches
// that interleave a 10×10 and a 16×16 engine on one pool must still be
// bit-identical to serial.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "floorplan/ev6.h"
#include "la/banded_lu.h"
#include "la/column_jacobi.h"
#include "la/iterative.h"
#include "newton_oracle.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "thermal/steady.h"
#include "util/thread_pool.h"
#include "workload/benchmarks.h"

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

/// One grid resolution with a SteadySolver per MiBench peak map.
class Stack {
 public:
  Stack(std::size_t nx, std::size_t ny)
      : model_(package::PackageConfig::paper_default(), fp(), nx, ny) {
    for (const workload::Benchmark b : workload::all_benchmarks()) {
      solvers_.push_back(std::make_unique<SteadySolver>(
          model_,
          model_.distribute(
              workload::peak_power_map(workload::profile_for(b), fp())),
          model_.cell_leakage(leakage()), SteadyOptions{}));
    }
  }

  [[nodiscard]] const ThermalModel& model() const { return model_; }
  [[nodiscard]] const std::vector<std::unique_ptr<SteadySolver>>& solvers()
      const {
    return solvers_;
  }

  /// 6×6 grid: ω from ω_max/6 to ω_max (ω = 0 is runaway for every map),
  /// I from 0 to I_max.
  [[nodiscard]] std::vector<OperatingPoint> grid() const {
    std::vector<OperatingPoint> pts;
    const double omega_max = model_.config().fan.max_speed;
    const double current_max = model_.config().tec.max_current;
    for (std::size_t wi = 1; wi <= 6; ++wi) {
      for (std::size_t ci = 0; ci < 6; ++ci) {
        pts.push_back({omega_max * static_cast<double>(wi) / 6.0,
                       current_max * static_cast<double>(ci) / 5.0});
      }
    }
    return pts;
  }

 private:
  ThermalModel model_;
  std::vector<std::unique_ptr<SteadySolver>> solvers_;
};

const Stack& stack6() {
  static const Stack s(6, 6);
  return s;
}

const Stack& stack10() {
  static const Stack s(10, 10);
  return s;
}

const Stack& stack16() {
  static const Stack s(16, 16);
  return s;
}

bool physical(const la::Vector& t, double runaway) {
  for (const double v : t) {
    if (!std::isfinite(v) || v <= 0.0 || v > runaway) return false;
  }
  return true;
}

/// Cold-CG work on the Newton systems of one operating point, under
/// diagonal Jacobi, under column blocks alone, and under the engine's column
/// preconditioner (column blocks plus the coarse level).
struct Tally {
  std::size_t systems = 0;
  std::size_t diagonal_iterations = 0;
  std::size_t column_only_iterations = 0;
  std::size_t column_iterations = 0;
  std::size_t diagonal_fallbacks = 0;
  std::size_t column_fallbacks = 0;
};

/// Column blocks without the coarse level, on the engine's pattern.
la::ColumnBlockSymbolic column_only(const ThermalModel& model) {
  std::vector<std::size_t> slab_first;
  for (std::size_t k = 0; k < kSlabCount; ++k) {
    slab_first.push_back(model.layout().node(static_cast<Slab>(k), 0));
  }
  return la::ColumnBlockSymbolic::analyze(model.static_csr_system().matrix,
                                          model.layout().cells_per_layer(),
                                          std::move(slab_first));
}

/// Replays the engine's exact-leakage Newton loop, solving each assembled
/// system cold (no warm start) at the reference tolerance both ways. A
/// system CG cannot solve to a physical answer counts as a direct fallback;
/// the loop then advances on the direct solve, as the engine does. Where
/// the column factor finds a non-positive pivot the engine keeps diagonal
/// Jacobi, so that solve counts the diagonal run for both.
void tally_point(const SteadySolver& solver, const la::ColumnBlockSymbolic& cs,
                 const la::ColumnBlockSymbolic& cs_only,
                 const OperatingPoint& pt, Tally& tally) {
  const ThermalModel& model = solver.model();
  const SteadyOptions& sopts = solver.options();
  const std::size_t cells = model.layout().cells_per_layer();
  const IncrementalAssembler assembler(model, solver.cell_dynamic_power());
  const la::Vector current(cells, pt.current);
  CsrSystem csr;
  la::ColumnBlockJacobi column;
  la::Vector t_ref(cells, model.config().ambient + 10.0);
  std::vector<power::TaylorCoefficients> taylor(cells);
  for (std::size_t it = 0; it < sopts.max_iterations; ++it) {
    for (std::size_t i = 0; i < cells; ++i) {
      taylor[i] = power::tangent_linearize(solver.cell_leakage()[i], t_ref[i]);
    }
    assembler.assemble_csr(pt.omega, current, taylor, csr);
    la::IterativeOptions opts;
    opts.tolerance = sopts.iterative_tolerance;
    opts.max_iterations = 4 * csr.rhs.size();
    const la::IterativeResult diag = la::solve_cg(csr.matrix, csr.rhs, opts);
    const bool diag_ok =
        diag.converged && physical(diag.x, sopts.runaway_temperature);
    std::size_t only_iterations = diag.iterations;
    if (column.factor(cs_only, csr.matrix)) {
      opts.preconditioner = &column;
      only_iterations = la::solve_cg(csr.matrix, csr.rhs, opts).iterations;
    }
    la::IterativeResult col = diag;
    bool col_ok = diag_ok;
    if (column.factor(cs, csr.matrix)) {
      opts.preconditioner = &column;
      col = la::solve_cg(csr.matrix, csr.rhs, opts);
      col_ok = col.converged && physical(col.x, sopts.runaway_temperature);
    }
    ++tally.systems;
    tally.diagonal_iterations += diag.iterations;
    tally.column_only_iterations += only_iterations;
    tally.column_iterations += col.iterations;
    tally.diagonal_fallbacks += diag_ok ? 0 : 1;
    tally.column_fallbacks += col_ok ? 0 : 1;

    la::Vector temps;
    if (col_ok) {
      temps = col.x;
    } else if (diag_ok) {
      temps = diag.x;
    } else {
      const AssembledSystem sys =
          assembler.assemble_banded(pt.omega, current, taylor);
      try {
        temps = la::BandedLu(sys.matrix).solve(sys.rhs);
      } catch (const std::runtime_error&) {
        return;  // singular: runaway
      }
      if (!physical(temps, sopts.runaway_temperature)) return;
    }
    const la::Vector chip = model.slab_temperatures(temps, Slab::kChip);
    const double diff = la::max_abs_diff(chip, t_ref);
    t_ref = chip;
    if (diff < sopts.tolerance) return;
  }
}

TEST(EnginePreconditioner, MiBenchGridMatchesSteadySolver) {
  // At the runaway boundary (ω_max/6, full current) the two Newton
  // schedules can end differently — the reference declares runaway where
  // the engine stops unconverged after max_iterations — and neither answer
  // is usable. So: wherever the reference converges, the engine converges
  // to within 1e-3 K; wherever it does not, the engine reports no answer.
  for (const auto& solver : stack10().solvers()) {
    const SolveEngine engine(*solver);
    for (const OperatingPoint& pt : stack10().grid()) {
      const SteadyResult seed =
          testing::newton_oracle(*solver, pt.omega, pt.current);
      const SteadyResult fast = engine.solve(pt);
      if (seed.status != SolveStatus::kOk) {
        EXPECT_NE(fast.status, SolveStatus::kOk)
            << "omega=" << pt.omega << " I=" << pt.current;
        continue;
      }
      ASSERT_EQ(fast.status, SolveStatus::kOk)
          << "omega=" << pt.omega << " I=" << pt.current;
      EXPECT_NEAR(seed.max_chip_temperature, fast.max_chip_temperature, 1e-3);
      EXPECT_NEAR(seed.tec_power, fast.tec_power, 1e-3);
    }
  }
}

/// The cold-CG tally over the eight maps × the 6×6 grid, computed once.
const Tally& grid_tally() {
  static const Tally tally = [] {
    Tally t;
    for (const auto& solver : stack10().solvers()) {
      const la::ColumnBlockSymbolic cs =
          IncrementalAssembler(solver->model(), solver->cell_dynamic_power())
              .column_structure();
      const la::ColumnBlockSymbolic cs_only = column_only(solver->model());
      for (const OperatingPoint& pt : stack10().grid()) {
        tally_point(*solver, cs, cs_only, pt, t);
      }
    }
    return t;
  }();
  return tally;
}

TEST(EnginePreconditioner, ColdCgIterationsAtMostSixTenthsOfDiagonalJacobi) {
  const Tally& tally = grid_tally();
  RecordProperty("newton_systems", static_cast<int>(tally.systems));
  RecordProperty("diagonal_iterations",
                 static_cast<int>(tally.diagonal_iterations));
  RecordProperty("column_iterations",
                 static_cast<int>(tally.column_iterations));
  RecordProperty("diagonal_fallbacks",
                 static_cast<int>(tally.diagonal_fallbacks));
  RecordProperty("column_fallbacks", static_cast<int>(tally.column_fallbacks));
  ASSERT_GT(tally.systems, 8u * 36u);
  EXPECT_LE(static_cast<double>(tally.column_iterations),
            0.6 * static_cast<double>(tally.diagonal_iterations))
      << tally.column_iterations << " vs " << tally.diagonal_iterations
      << " over " << tally.systems << " systems";
  EXPECT_LE(tally.column_fallbacks, tally.diagonal_fallbacks);
}

TEST(EnginePreconditioner, ColdCgCoarseLevelAtMostHalfOfColumnBlocksAlone) {
  const Tally& tally = grid_tally();
  RecordProperty("column_only_iterations",
                 static_cast<int>(tally.column_only_iterations));
  RecordProperty("column_iterations",
                 static_cast<int>(tally.column_iterations));
  ASSERT_GT(tally.systems, 8u * 36u);
  EXPECT_LE(static_cast<double>(tally.column_iterations),
            0.5 * static_cast<double>(tally.column_only_iterations))
      << tally.column_iterations << " vs " << tally.column_only_iterations
      << " over " << tally.systems << " systems";
}

TEST(EnginePreconditioner, EngineAveragesAtMostTenCgIterationsPerSolve) {
  std::size_t linear_solves = 0;
  std::size_t cg_iterations = 0;
  for (const auto& solver : stack10().solvers()) {
    const SolveEngine engine(*solver);
    (void)engine.solve_serial(stack10().grid());
    linear_solves += engine.stats().linear_solves;
    cg_iterations += engine.stats().cg_iterations;
  }
  ASSERT_GT(linear_solves, 0u);
  const double per_solve = static_cast<double>(cg_iterations) /
                           static_cast<double>(linear_solves);
  RecordProperty("cg_iterations_per_solve_x100",
                 static_cast<int>(100.0 * per_solve));
  // 7.60 under both scalar and simd with the two-group coarse level (7.51
  // with three groups, ≈ 20 with column blocks alone).
  EXPECT_LE(per_solve, 10.0) << cg_iterations << " over " << linear_solves;
}

/// The engine's coarse map with the spreader as a third slab group: 5×5
/// aggregates × (spreader, sink, the rest) + 3 rings = 78 unknowns.
la::ColumnBlockSymbolic three_group_structure(const ThermalModel& model) {
  const NodeLayout& layout = model.layout();
  std::vector<std::size_t> slab_first;
  la::CoarseMap coarse;
  for (std::size_t k = 0; k < kSlabCount; ++k) {
    const auto slab = static_cast<Slab>(k);
    slab_first.push_back(layout.node(slab, 0));
    coarse.slab_group.push_back(
        slab == Slab::kSpreader ? 1 : (slab == Slab::kSink ? 2 : 0));
  }
  const std::size_t nx = layout.nx();
  const std::size_t ny = layout.ny();
  for (std::size_t cell = 0; cell < layout.cells_per_layer(); ++cell) {
    coarse.cell_aggregate.push_back((cell / nx * 5 / ny) * 5 +
                                    cell % nx * 5 / nx);
  }
  return la::ColumnBlockSymbolic::analyze(model.static_csr_system().matrix,
                                          layout.cells_per_layer(),
                                          std::move(slab_first),
                                          std::move(coarse));
}

/// Cold-CG iterations of one decision point's four solves at
/// (0.6 ω_max, 0.5 I_max) under `structure`: the first Newton system (the
/// engine's T_amb + 10 K linearization) at the inner tolerance 1e-6 and at
/// the polish tolerance, then ∂T/∂ω and ∂T/∂I (all cells) at the polish
/// tolerance on the system linearized at the converged point.
std::array<std::size_t, 4> cold_iterations(
    const SteadySolver& solver, const la::ColumnBlockSymbolic& structure) {
  const ThermalModel& model = solver.model();
  const std::size_t cells = model.layout().cells_per_layer();
  const double omega = 0.6 * model.config().fan.max_speed;
  const la::Vector current(cells, 0.5 * model.config().tec.max_current);
  const double polish = solver.options().iterative_tolerance;
  const IncrementalAssembler assembler(model, solver.cell_dynamic_power());
  std::vector<power::TaylorCoefficients> taylor(cells);
  const auto linearize = [&](const la::Vector& chip) {
    for (std::size_t i = 0; i < cells; ++i) {
      taylor[i] = power::tangent_linearize(solver.cell_leakage()[i], chip[i]);
    }
  };
  CsrSystem csr;
  la::ColumnBlockJacobi column;
  const auto cold = [&](const la::Vector& rhs, double tolerance) {
    la::IterativeOptions opts;
    opts.tolerance = tolerance;
    opts.max_iterations = 4 * rhs.size();
    opts.preconditioner = &column;
    const la::IterativeResult r = la::solve_cg(csr.matrix, rhs, opts);
    EXPECT_TRUE(r.converged);
    return r.iterations;
  };
  std::array<std::size_t, 4> out{};

  linearize(la::Vector(cells, model.config().ambient + 10.0));
  assembler.assemble_csr(omega, current, taylor, csr);
  EXPECT_TRUE(column.factor(structure, csr.matrix));
  out[0] = cold(csr.rhs, 1e-6);
  out[1] = cold(csr.rhs, polish);

  const SteadyResult point = SolveEngine(solver).solve({omega, current[0]});
  EXPECT_EQ(point.status, SolveStatus::kOk);
  linearize(model.slab_temperatures(point.temperatures, Slab::kChip));
  assembler.assemble_csr(omega, current, taylor, csr);
  EXPECT_TRUE(column.factor(structure, csr.matrix));
  la::Vector rhs;
  model.omega_sensitivity_rhs(omega, point.temperatures, rhs);
  out[2] = cold(rhs, polish);
  model.current_sensitivity_rhs(current, la::Vector(cells, 1.0),
                                point.temperatures, rhs);
  out[3] = cold(rhs, polish);
  return out;
}

TEST(EnginePreconditioner, TwoSlabGroupsKeepThreeGroupIterationsWithinOne) {
  // The split that matters is TIM2's, between the sink and the rest; a
  // spreader group of its own costs 25 coarse unknowns and buys at most an
  // iteration per solve.
  const std::array<workload::Benchmark, 2> maps = {
      workload::Benchmark::kQuicksort, workload::Benchmark::kBitCount};
  for (const Stack* stack : {&stack6(), &stack10(), &stack16()}) {
    for (const workload::Benchmark b : maps) {
      const auto& all = workload::all_benchmarks();
      const std::size_t index = static_cast<std::size_t>(
          std::find(all.begin(), all.end(), b) - all.begin());
      const SteadySolver& solver = *stack->solvers()[index];
      const la::ColumnBlockSymbolic two =
          IncrementalAssembler(solver.model(), solver.cell_dynamic_power())
              .column_structure();
      const la::ColumnBlockSymbolic three =
          three_group_structure(solver.model());
      ASSERT_EQ(two.coarse_size(), 53u);
      ASSERT_EQ(three.coarse_size(), 78u);
      const std::array<std::size_t, 4> ours = cold_iterations(solver, two);
      const std::array<std::size_t, 4> theirs = cold_iterations(solver, three);
      for (std::size_t q = 0; q < ours.size(); ++q) {
        EXPECT_LE(ours[q], theirs[q] + 1)
            << workload::benchmark_name(b) << " "
            << solver.model().layout().nx() << "x"
            << solver.model().layout().ny() << " solve " << q;
      }
    }
  }
}

void expect_identical(const SteadyResult& a, const SteadyResult& b,
                      std::size_t i) {
  ASSERT_EQ(a.status, b.status) << "point " << i;
  ASSERT_EQ(a.iterations, b.iterations) << "point " << i;
  ASSERT_EQ(a.max_chip_temperature, b.max_chip_temperature) << "point " << i;
  ASSERT_EQ(a.tec_power, b.tec_power) << "point " << i;
  ASSERT_EQ(a.temperatures.size(), b.temperatures.size()) << "point " << i;
  for (std::size_t j = 0; j < a.temperatures.size(); ++j) {
    ASSERT_EQ(a.temperatures[j], b.temperatures[j])
        << "point " << i << " node " << j;
  }
}

TEST(EnginePreconditioner, InterleavedGridSizesOnOnePoolMatchSerial) {
  const SolveEngine small(*stack10().solvers()[5]);
  const SolveEngine large(*stack16().solvers()[5]);
  const std::vector<OperatingPoint> grid = stack10().grid();
  std::vector<OperatingPoint> pts;
  for (std::size_t i = 0; i < grid.size(); i += 5) pts.push_back(grid[i]);
  const std::vector<SteadyResult> small_ref = small.solve_serial(pts);
  const std::vector<SteadyResult> large_ref = large.solve_serial(pts);

  util::ThreadPool pool(4);
  // Alternate whole batches: each worker's thread-local workspace passes
  // from one grid size to the other between batches.
  for (int round = 0; round < 2; ++round) {
    const std::vector<SteadyResult> s = small.solve_batch(pts, pool);
    const std::vector<SteadyResult> l = large.solve_batch(pts, pool);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      expect_identical(small_ref[i], s[i], i);
      expect_identical(large_ref[i], l[i], i);
    }
  }
  // Interleave within one job: the nested solve_batch runs inline on the
  // worker, so consecutive points on a thread alternate grid sizes through
  // the same thread-local workspace.
  std::vector<SteadyResult> mixed(2 * pts.size());
  pool.parallel_for(mixed.size(), [&](std::size_t i) {
    const SolveEngine& engine = i % 2 == 0 ? small : large;
    mixed[i] = engine.solve_batch({pts[i / 2]}, pool).front();
  });
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    expect_identical(i % 2 == 0 ? small_ref[i / 2] : large_ref[i / 2],
                     mixed[i], i);
  }
}

}  // namespace
}  // namespace oftec::thermal
