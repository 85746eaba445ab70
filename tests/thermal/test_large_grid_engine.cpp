// Large-grid scenario family: 32×32 and 64×64 floorplan resolutions driven
// through ThermalModel + SolveEngine — the system sizes the panel-blocked
// factorization and fused-CG kernels were built for (n = 9219, bandwidth
// 1025 at 32×32; n = 36867, bandwidth 4097 at 64×64).
//
// Contracts, mirroring the default-grid suites at scale:
//   - batched == serial, bit for bit, at any thread count;
//   - the direct path's factor cache is deterministic: warm hits, tiny
//     capacities (eviction-heavy), and corrupt-factor self-heal all
//     reproduce the cold answer exactly;
//   - the 64×64 grid solves purely iteratively (a direct factorization at
//     bandwidth 4097 is ~77 GFLOP and must never be triggered by accident);
//   - on both grids the engine's column preconditioner never needs more CG
//     iterations than diagonal Jacobi on the same assembled system. Finer
//     cells weaken the vertical couplings it captures relative to the
//     lateral ones, so the margin shrinks with grid size (docs/solver.md);
//   - nor does its coarse level ever need more than column blocks alone.
//
// Direct factorizations at n = 9219 run seconds-scale, hence tier2.
#include "thermal/solve_engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "floorplan/ev6.h"
#include "la/column_jacobi.h"
#include "la/iterative.h"
#include "power/mcpat_like.h"
#include "thermal/model.h"
#include "thermal/steady.h"
#include "util/fault.h"
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

/// One grid resolution bound to the quicksort peak-power workload. Static
/// instances share the (expensive) model assembly across tests in this file.
class Scenario {
 public:
  Scenario(std::size_t nx, std::size_t ny)
      : model_(package::PackageConfig::paper_default(), fp(), nx, ny),
        solver_(model_,
                model_.distribute(workload::peak_power_map(
                    workload::profile_for(workload::Benchmark::kQuicksort),
                    fp())),
                model_.cell_leakage(leakage()), SteadyOptions{}) {}

  [[nodiscard]] const ThermalModel& model() const { return model_; }
  [[nodiscard]] const SteadySolver& solver() const { return solver_; }
  [[nodiscard]] double omega_max() const {
    return model_.config().fan.max_speed;
  }
  [[nodiscard]] double current_max() const {
    return model_.config().tec.max_current;
  }

 private:
  ThermalModel model_;
  SteadySolver solver_;
};

const Scenario& grid32() {
  static const Scenario s(32, 32);
  return s;
}

const Scenario& grid64() {
  static const Scenario s(64, 64);
  return s;
}

void expect_identical(const SteadyResult& a, const SteadyResult& b,
                      std::size_t i) {
  ASSERT_EQ(a.status, b.status) << "point " << i;
  ASSERT_EQ(a.converged, b.converged) << "point " << i;
  ASSERT_EQ(a.runaway, b.runaway) << "point " << i;
  ASSERT_EQ(a.iterations, b.iterations) << "point " << i;
  ASSERT_EQ(a.max_chip_temperature, b.max_chip_temperature) << "point " << i;
  ASSERT_EQ(a.leakage_power, b.leakage_power) << "point " << i;
  ASSERT_EQ(a.tec_power, b.tec_power) << "point " << i;
  ASSERT_EQ(a.temperatures.size(), b.temperatures.size()) << "point " << i;
  for (std::size_t j = 0; j < a.temperatures.size(); ++j) {
    ASSERT_EQ(a.temperatures[j], b.temperatures[j])
        << "point " << i << " node " << j;
  }
}

/// Cold CG iterations on the Newton system linearized at `chip`, under
/// diagonal Jacobi, column blocks alone, and the engine's column
/// preconditioner (column blocks plus the coarse level).
struct ColdCg {
  std::size_t diagonal = 0;
  std::size_t column_only = 0;
  std::size_t column = 0;
};

ColdCg cold_cg(const Scenario& s, const OperatingPoint& pt,
               const la::Vector& chip) {
  const SteadySolver& solver = s.solver();
  const std::size_t cells = s.model().layout().cells_per_layer();
  const IncrementalAssembler assembler(s.model(), solver.cell_dynamic_power());
  std::vector<power::TaylorCoefficients> taylor(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    taylor[i] = power::tangent_linearize(solver.cell_leakage()[i], chip[i]);
  }
  CsrSystem csr;
  assembler.assemble_csr(pt.omega, la::Vector(cells, pt.current), taylor, csr);
  la::IterativeOptions opts;
  opts.tolerance = solver.options().iterative_tolerance;
  opts.max_iterations = 4 * csr.rhs.size();
  const la::IterativeResult diagonal =
      la::solve_cg(csr.matrix, csr.rhs, opts);
  std::vector<std::size_t> slab_first;
  for (std::size_t k = 0; k < kSlabCount; ++k) {
    slab_first.push_back(s.model().layout().node(static_cast<Slab>(k), 0));
  }
  const la::ColumnBlockSymbolic blocks = la::ColumnBlockSymbolic::analyze(
      csr.matrix, cells, std::move(slab_first));
  la::ColumnBlockJacobi column;
  EXPECT_TRUE(column.factor(blocks, csr.matrix));
  opts.preconditioner = &column;
  const la::IterativeResult blocks_only =
      la::solve_cg(csr.matrix, csr.rhs, opts);
  const la::ColumnBlockSymbolic structure = assembler.column_structure();
  EXPECT_TRUE(column.factor(structure, csr.matrix));
  const la::IterativeResult preconditioned =
      la::solve_cg(csr.matrix, csr.rhs, opts);
  EXPECT_TRUE(diagonal.converged);
  EXPECT_TRUE(blocks_only.converged);
  EXPECT_TRUE(preconditioned.converged);
  return {diagonal.iterations, blocks_only.iterations,
          preconditioned.iterations};
}

/// For each point, the engine's first Newton system (linearized at the
/// initial guess) and its last (at the converged chip temperatures).
void expect_column_never_worse(const Scenario& s,
                               const std::vector<OperatingPoint>& pts) {
  const SolveEngine engine(s.solver());
  const std::size_t cells = s.model().layout().cells_per_layer();
  const la::Vector initial(cells, s.model().config().ambient + 10.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const SteadyResult result = engine.solve(pts[i]);
    ASSERT_EQ(result.status, SolveStatus::kOk) << "point " << i;
    for (const la::Vector* chip : {&initial, &result.chip_temperatures}) {
      const ColdCg cg = cold_cg(s, pts[i], *chip);
      const std::string system = "p" + std::to_string(i) +
                                 (chip == &initial ? "_initial" : "_converged");
      ::testing::Test::RecordProperty(
          system, std::to_string(cg.diagonal) + " -> " +
                      std::to_string(cg.column_only) + " -> " +
                      std::to_string(cg.column));
      EXPECT_LE(cg.column, cg.diagonal) << "point " << i;
      EXPECT_LE(cg.column, cg.column_only) << "point " << i;
    }
  }
}

TEST(LargeGridEngine, Grid32ColumnPreconditionerNeverNeedsMoreCgIterations) {
  const double w = grid32().omega_max();
  const double c = grid32().current_max();
  expect_column_never_worse(
      grid32(), {{0.5 * w, 0.0}, {w, 0.0}, {0.5 * w, 0.3 * c}, {w, 0.3 * c}});
}

TEST(LargeGridEngine, Grid64ColumnPreconditionerNeverNeedsMoreCgIterations) {
  const double w = grid64().omega_max();
  const double c = grid64().current_max();
  expect_column_never_worse(grid64(), {{0.8 * w, 0.0}, {0.8 * w, 0.25 * c}});
}

TEST(LargeGridEngine, Grid32BatchedBitIdenticalToSerial) {
  const SolveEngine engine(grid32().solver());
  const double w = grid32().omega_max();
  const double c = grid32().current_max();
  const std::vector<OperatingPoint> pts = {
      {0.5 * w, 0.0}, {w, 0.0}, {0.5 * w, 0.3 * c}, {w, 0.3 * c}};

  const std::vector<SteadyResult> serial = engine.solve_serial(pts);
  util::ThreadPool pool(2);
  const std::vector<SteadyResult> batch = engine.solve_batch(pts, pool);

  ASSERT_EQ(batch.size(), serial.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_EQ(serial[i].status, SolveStatus::kOk) << "point " << i;
    // 9·32² + 3 chip/TEC/spreader nodes plus the sink path.
    EXPECT_GE(serial[i].temperatures.size(), std::size_t{9219}) << i;
    EXPECT_GT(serial[i].max_chip_temperature, 250.0) << i;
    EXPECT_LT(serial[i].max_chip_temperature, 500.0) << i;
    expect_identical(serial[i], batch[i], i);
  }
}

TEST(LargeGridEngine, Grid32DirectFactorCacheWarmTinyAndCorruptAllBitExact) {
  fault::disarm_all();
  fault::reset_counters();

  // Direct-only engine: every Newton linearization is a panel-blocked
  // Cholesky at n = 9219, k = 1025 going through the factor cache.
  EngineOptions direct;
  direct.use_iterative = false;
  const SolveEngine engine(grid32().solver(), direct);
  const OperatingPoint p{0.7 * grid32().omega_max(), 0.0};

  const SteadyResult cold = engine.solve(p);
  ASSERT_EQ(cold.status, SolveStatus::kOk);
  const std::size_t cold_factorizations = engine.stats().factorizations;
  EXPECT_GT(cold_factorizations, 0u);

  // Warm pass: same point, same linearization path, so every factor must be
  // a cache hit and the result must not move a bit.
  const SteadyResult warm = engine.solve(p);
  expect_identical(cold, warm, 1);
  EXPECT_EQ(engine.stats().factorizations, cold_factorizations);
  EXPECT_GT(engine.stats().factor_hits, 0u);

  // Eviction-heavy cache (a single slot): results still cannot move —
  // eviction order influences work, never bits.
  EngineOptions tiny = direct;
  tiny.factor_cache_capacity = 1;
  const SolveEngine small_cache(grid32().solver(), tiny);
  expect_identical(cold, small_cache.solve(p), 2);

  // Corrupt every cache hit: the engine must evict, refactorize from the
  // assembled matrix, and self-heal to the clean answer bit for bit.
  (void)fault::arm("solve_engine.factor_corrupt", 1.0, 7);
  const SteadyResult healed = engine.solve(p);
  EXPECT_GT(fault::fires("solve_engine.factor_corrupt"), 0u);
  expect_identical(cold, healed, 3);
  fault::disarm_all();
  fault::reset_counters();
}

TEST(LargeGridEngine, Grid64IterativeOnlyAndDeterministic) {
  const SolveEngine engine(grid64().solver());
  const double w = grid64().omega_max();
  const double c = grid64().current_max();
  const std::vector<OperatingPoint> pts = {{0.8 * w, 0.0},
                                           {0.8 * w, 0.25 * c}};

  const std::vector<SteadyResult> first = engine.solve_serial(pts);
  const std::vector<SteadyResult> second = engine.solve_serial(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_EQ(first[i].status, SolveStatus::kOk) << "point " << i;
    EXPECT_GE(first[i].temperatures.size(), std::size_t{36867}) << i;
    EXPECT_GT(first[i].max_chip_temperature, 250.0) << i;
    EXPECT_LT(first[i].max_chip_temperature, 500.0) << i;
    expect_identical(first[i], second[i], i);
  }
  // A direct factorization at bandwidth 4097 is ~77 GFLOP; the fused-CG
  // path must carry the whole solve without ever falling back to it.
  EXPECT_EQ(engine.stats().direct_fallbacks, 0u);
  EXPECT_GT(engine.stats().cg_iterations, 0u);
}

}  // namespace
}  // namespace oftec::thermal
