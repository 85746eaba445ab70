// Google-benchmark microbenchmarks of the numerical kernels behind OFTEC:
// network assembly, the banded direct solve, one full nonlinear steady
// evaluation, and a complete Algorithm 1 run. These are the per-call costs
// that Table 2's runtime column decomposes into.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/problems.h"
#include "la/backend.h"
#include "la/banded_factor.h"
#include "la/banded_lu.h"
#include "la/banded_matrix.h"
#include "la/column_jacobi.h"
#include "la/iterative.h"
#include "la/sparse.h"
#include "la/split_cholesky.h"
#include "la/vector_ops.h"
#include "thermal/solve_engine.h"
#include "thermal/steady.h"
#include "thermal/transient_engine.h"
#include "util/stopwatch.h"
#include "util/units.h"

namespace {

using namespace oftec;
using namespace oftec::bench;

const power::PowerMap& quicksort_peak() {
  static const power::PowerMap map = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort),
      paper_floorplan());
  return map;
}

const thermal::ThermalModel& model_for_grid(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<thermal::ThermalModel>> cache;
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_unique<thermal::ThermalModel>(
        package::PackageConfig::paper_default(), paper_floorplan(), n, n);
  }
  return *slot;
}

void BM_NetworkAssembly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const thermal::ThermalModel& model = model_for_grid(n);
  const la::Vector dyn = model.distribute(quicksort_peak());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (auto& tc : taylor) tc = {0.01, 0.1, 330.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assemble(300.0, 1.0, dyn, taylor));
  }
  state.SetLabel(std::to_string(model.layout().node_count()) + " nodes");
}
BENCHMARK(BM_NetworkAssembly)->Arg(6)->Arg(10)->Arg(16);

void BM_BandedSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const thermal::ThermalModel& model = model_for_grid(n);
  const la::Vector dyn = model.distribute(quicksort_peak());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (auto& tc : taylor) tc = {0.01, 0.1, 330.0};
  const thermal::AssembledSystem sys =
      model.assemble(300.0, 1.0, dyn, taylor);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::BandedLu(sys.matrix).solve(sys.rhs));
  }
  state.SetLabel(std::to_string(model.layout().node_count()) + " nodes");
}
BENCHMARK(BM_BandedSolve)->Arg(6)->Arg(10)->Arg(16);

// la::BandedFactor::refactorize — the policy every direct thermal solve
// factors through (Cholesky here; the label names the path taken).
void BM_BandedFactorRefactorize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const thermal::ThermalModel& model = model_for_grid(n);
  const la::Vector dyn = model.distribute(quicksort_peak());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (auto& tc : taylor) tc = {0.01, 0.1, 330.0};
  const thermal::AssembledSystem sys =
      model.assemble(300.0, 1.0, dyn, taylor);
  la::BandedFactor factor(sys.matrix);
  for (auto _ : state) {
    factor.refactorize(sys.matrix);
    benchmark::DoNotOptimize(factor.valid());
  }
  state.SetLabel(std::to_string(model.layout().node_count()) + " nodes, " +
                 (factor.kind() == la::BandedFactor::Kind::kCholesky
                      ? "cholesky"
                      : "lu"));
}
BENCHMARK(BM_BandedFactorRefactorize)->Arg(6)->Arg(10)->Arg(16);

la::Vector kernel_vector(std::size_t n, double seed) {
  la::Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = seed + 1e-3 * static_cast<double>(i % 97);
  }
  return v;
}

void BM_VectorDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Vector x = kernel_vector(n, 1.0);
  const la::Vector y = kernel_vector(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::dot(x, y));
  }
}
BENCHMARK(BM_VectorDot)->Arg(903)->Arg(8192);

void BM_VectorAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Vector x = kernel_vector(n, 1.0);
  la::Vector y = kernel_vector(n, 2.0);
  for (auto _ : state) {
    la::axpy(1e-6, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_VectorAxpy)->Arg(903)->Arg(8192);

// The fused CG update: y += alpha·x and ||y||² in one pass (vs axpy + dot).
void BM_VectorAxpyDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Vector x = kernel_vector(n, 1.0);
  la::Vector y = kernel_vector(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::axpy_dot(1e-6, x, y));
  }
}
BENCHMARK(BM_VectorAxpyDot)->Arg(903)->Arg(8192);

void BM_SteadyEvaluation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const thermal::ThermalModel& model = model_for_grid(n);
  const thermal::SteadySolver solver(model, model.distribute(quicksort_peak()),
                                     model.cell_leakage(paper_leakage()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(units::rpm_to_rad_s(3000.0), 1.0));
  }
}
BENCHMARK(BM_SteadyEvaluation)->Arg(6)->Arg(10);

void BM_FullOftecRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::CoolingSystem::Config cfg;
    cfg.grid_nx = cfg.grid_ny = n;
    const core::CoolingSystem sys(paper_floorplan(), quicksort_peak(),
                                  paper_leakage(), cfg);
    benchmark::DoNotOptimize(core::run_oftec(sys));
  }
}
BENCHMARK(BM_FullOftecRun)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Panel / fused-CG kernels across the explicit backend tables
// ---------------------------------------------------------------------------

/// Second benchmark argument: which dispatch table to exercise. Unavailable
/// flavors (machine without AVX2/AVX-512) skip with an explanatory error.
const la::BackendOps* backend_table(int idx) {
  switch (idx) {
    case 0: return &la::scalar_backend();
    case 1: return la::avx2_backend();
    case 2: return la::avx512_backend();
    default: return nullptr;
  }
}

const char* backend_arg_label(int idx) {
  return idx == 0 ? "scalar" : idx == 1 ? "avx2" : "avx512";
}

constexpr std::size_t kBenchFolds = 8;

// The trsv_bwd inner shape: kBenchFolds simultaneous contiguous folds with
// stride-offset source columns and ascending capped lengths.
void BM_PanelFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::BackendOps* ops = backend_table(static_cast<int>(state.range(1)));
  if (ops == nullptr) {
    state.SkipWithError("backend flavor unavailable on this machine");
    return;
  }
  const la::Vector a = kernel_vector(n, 1.0);
  const la::Vector x = kernel_vector(n, 2.0);
  const la::Vector init = kernel_vector(kBenchFolds, 3.0);
  const std::size_t sa = std::max<std::size_t>(1, n / (2 * kBenchFolds));
  const std::size_t len_cap = n - (kBenchFolds - 1) * sa;
  const std::size_t len0 = std::max<std::size_t>(1, len_cap / 2);
  double out[kBenchFolds];
  for (auto _ : state) {
    ops->panel_fold(kBenchFolds, init.data(), a.data(), sa, len0, len_cap,
                    x.data(), out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetLabel(backend_arg_label(static_cast<int>(state.range(1))));
}
BENCHMARK(BM_PanelFold)->Args({8192, 0})->Args({8192, 1})->Args({8192, 2});

/// Jacobi-preconditioned SPD five-diagonal system (a 96-wide grid stencil)
/// at the 32×32-floorplan node count.
const la::SparseMatrix& cg_matrix(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<la::SparseMatrix>> cache;
  auto& slot = cache[n];
  if (!slot) {
    la::TripletBuilder b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b.add(i, i, 4.5);
      if (i + 1 < n) {
        b.add(i, i + 1, -1.0);
        b.add(i + 1, i, -1.0);
      }
      if (i + 96 < n) {
        b.add(i, i + 96, -1.0);
        b.add(i + 96, i, -1.0);
      }
    }
    slot = std::make_unique<la::SparseMatrix>(b.build());
  }
  return *slot;
}

/// Fixed count of fully fused CG iterations from x = 0 under the installed
/// backend: the exact solve_cg loop body — multiply_dot, cg_update,
/// `precondition(r, z)` (z = M⁻¹r, returning r·z), search_dir_update — with
/// zero unfused vector passes. Returns an arithmetic sink so nothing is
/// optimized away.
template <class Precondition>
double fused_cg_iterations(const la::SparseMatrix& a, const la::Vector& b,
                           Precondition&& precondition, std::size_t iters) {
  const la::BackendOps& ops = la::backend();
  const std::size_t n = a.size();
  la::Vector x(n, 0.0);
  la::Vector r = b;
  la::Vector z(n), ap;
  double rz = precondition(r.data(), z.data());
  la::Vector p = z;
  double sink = 0.0;
  for (std::size_t it = 0; it < iters; ++it) {
    const double p_ap = a.multiply_dot(p, ap);
    if (p_ap <= 0.0) break;
    const double alpha = rz / p_ap;
    sink += std::sqrt(
        ops.cg_update(n, alpha, p.data(), ap.data(), x.data(), r.data()));
    const double rz_new = precondition(r.data(), z.data());
    ops.search_dir_update(n, rz_new / rz, z.data(), p.data());
    rz = rz_new;
  }
  return sink;
}

/// fused_cg_iterations on a cg_matrix stencil (diagonal 4.5) under diagonal
/// Jacobi, right-hand side all ones.
double jacobi_cg_iterations(const la::SparseMatrix& a, std::size_t iters) {
  const std::size_t n = a.size();
  const la::Vector inv_d(n, 1.0 / 4.5);
  return fused_cg_iterations(
      a, la::Vector(n, 1.0),
      [&inv_d, n](const double* r, double* z) {
        return la::backend().precond_dot(n, inv_d.data(), r, z);
      },
      iters);
}

void BM_FusedCgIter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int idx = static_cast<int>(state.range(1));
  if (backend_table(idx) == nullptr) {
    state.SkipWithError("backend flavor unavailable on this machine");
    return;
  }
  // The mat-vec dispatches through the installed table, so install it.
  la::install_backend(backend_arg_label(idx));
  const la::SparseMatrix& a = cg_matrix(n);
  constexpr std::size_t kIters = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jacobi_cg_iterations(a, kIters));
  }
  la::install_backend(std::getenv("OFTEC_LA_BACKEND"));  // restore selection
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kIters));
  state.SetLabel(backend_arg_label(idx));
}
BENCHMARK(BM_FusedCgIter)->Args({9219, 0})->Args({9219, 1})->Args({9219, 2});

// ---------------------------------------------------------------------------
// 32×32 acceptance section: refactorize and end-to-end steady solve,
// scalar vs each simd flavor, recorded in the bench JSON ("micro_kernels",
// with the 10×10 rows under "grid10").
// ---------------------------------------------------------------------------

struct BackendTiming {
  std::string name;             // resolved table name, e.g. "simd-avx512"
  double chol_refactorize_ms = 0.0;
  double lu_refactorize_ms = 0.0;
  double steady_solve_ms = 0.0;
  double panel_fold_ms = 0.0;   // per kBenchFolds-fold call, n = 8192
  double fused_cg_iter_ms = 0.0;  // per fused iteration, n = 9219
  double matvec_us = 0.0;  // one multiply_dot on the steady CG system
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median wall time of `reps` calls of f, in ms.
template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const util::Stopwatch watch;
    f();
    ms.push_back(watch.elapsed_ms());
  }
  return median_of(std::move(ms));
}

/// One multiply_dot (y = A·x and x·y) on `a`, in µs: the median of `reps`
/// blocks of 256 calls, after one untimed block.
double matvec_us(const la::SparseMatrix& a, int reps) {
  constexpr int kCalls = 256;
  const la::Vector x = kernel_vector(a.size(), 4.0);
  la::Vector y(a.size());
  const auto block = [&] {
    for (int i = 0; i < kCalls; ++i) {
      benchmark::DoNotOptimize(a.multiply_dot(x, y));
    }
  };
  block();
  return 1e3 * median_ms(reps, block) / kCalls;
}

/// Measures the hot path at the 32×32 grid (n = 9219, bandwidth 1025) under
/// one installed backend. Every row is a median, so runs compare: of 3
/// repeats for the seconds-scale rows (the factorizations and the direct
/// steady solve), of 11 blocks for the panel_fold and fused-CG rows.
BackendTiming measure_backend(const char* spec,
                              const thermal::AssembledSystem& spd,
                              const thermal::AssembledSystem& gen,
                              const thermal::SteadySolver& solver32,
                              const thermal::CsrSystem& cg_sys) {
  constexpr int kSlowReps = 3;
  constexpr int kBlocks = 11;
  const la::BackendOps& ops = la::install_backend(spec);
  BackendTiming t;
  t.name = ops.name;

  {
    auto symbolic = std::make_shared<const la::BandedCholeskySymbolic>(
        spd.matrix.size(), spd.matrix.lower_bandwidth());
    la::BandedCholeskyNumeric numeric(symbolic);
    numeric.refactorize(spd.matrix);  // warm the factor storage
    t.chol_refactorize_ms =
        median_ms(kSlowReps, [&] { numeric.refactorize(spd.matrix); });
  }
  {
    std::vector<double> ms;
    for (int r = 0; r < kSlowReps; ++r) {
      la::BandedMatrix copy = gen.matrix;  // the LU factors in place
      const util::Stopwatch watch;
      const la::BandedLu lu(std::move(copy));
      ms.push_back(watch.elapsed_ms());
      benchmark::DoNotOptimize(lu.valid());
    }
    t.lu_refactorize_ms = median_of(std::move(ms));
  }
  {
    thermal::EngineOptions direct;
    direct.use_iterative = false;
    const thermal::OperatingPoint pt{
        0.7 * solver32.model().config().fan.max_speed, 0.0};
    std::vector<double> ms;
    for (int r = 0; r < kSlowReps; ++r) {
      // A fresh engine each time: a warm factor cache would skip the
      // factorization this row times.
      const thermal::SolveEngine engine(solver32, direct);
      const util::Stopwatch watch;
      const thermal::SteadyResult res = engine.solve(pt);
      ms.push_back(watch.elapsed_ms());
      if (res.status != SolveStatus::kOk) {
        std::fprintf(stderr, "micro_kernels: 32x32 steady solve under %s did "
                             "not converge\n", ops.name);
      }
    }
    t.steady_solve_ms = median_of(std::move(ms));
  }
  {
    const std::size_t n = 8192;
    const la::Vector a = kernel_vector(n, 1.0);
    const la::Vector x = kernel_vector(n, 2.0);
    const la::Vector init = kernel_vector(kBenchFolds, 3.0);
    const std::size_t sa = std::max<std::size_t>(1, n / (2 * kBenchFolds));
    const std::size_t len_cap = n - (kBenchFolds - 1) * sa;
    const std::size_t len0 = std::max<std::size_t>(1, len_cap / 2);
    double out[kBenchFolds];
    const std::size_t reps = 4000;
    t.panel_fold_ms = median_ms(kBlocks, [&] {
                        for (std::size_t i = 0; i < reps; ++i) {
                          ops.panel_fold(kBenchFolds, init.data(), a.data(),
                                         sa, len0, len_cap, x.data(), out);
                          benchmark::DoNotOptimize(out[0]);
                        }
                      }) /
                      static_cast<double>(reps);
  }
  {
    const la::SparseMatrix& a = cg_matrix(9219);
    const std::size_t iters = 512;
    t.fused_cg_iter_ms =
        median_ms(kBlocks,
                  [&] {
                    benchmark::DoNotOptimize(jacobi_cg_iterations(a, iters));
                  }) /
        static_cast<double>(iters);
  }
  t.matvec_us = matvec_us(cg_sys.matrix, kBlocks);
  return t;
}

// ---------------------------------------------------------------------------
// 10×10 rows (n = 903, bandwidth 101): the paper's grid, where nearly every
// panel_update source ends inside a register block — the masked tails' case.
// ---------------------------------------------------------------------------

struct Grid10Timing {
  std::string name;
  double chol_refactorize_ms = 0.0;
  double lu_refactorize_ms = 0.0;
  double step_ms = 0.0;  ///< one TransientStepper step (CG)
  double cg_iteration_us = 0.0;  ///< one column-preconditioned CG iteration
  double column_factor_us = 0.0;  ///< one ColumnBlockJacobi::factor
  double cg_solve_us = 0.0;  ///< one cold CG solve to 1e-9, factor included
  std::size_t cg_solve_iterations = 0;
  double matvec_us = 0.0;  ///< one multiply_dot on the steady CG system
};

/// Medians over repeated factorizations of the 10-ms backward-Euler step
/// matrix (SPD: Cholesky), its pivoted LU, stepper steps (each linearizes,
/// stamps and solves by CG), column-preconditioned CG iterations on the
/// steady CG system, column + coarse factorizations of it, whole cold CG
/// solves of it, and its mat-vec, under one installed backend.
Grid10Timing measure_grid10(const char* spec,
                            const thermal::AssembledSystem& step_sys,
                            const thermal::ThermalModel& model,
                            const la::Vector& dyn,
                            const std::vector<power::ExponentialTerm>& leak,
                            const la::Vector& start,
                            const thermal::CsrSystem& cg_sys,
                            const la::ColumnBlockSymbolic& column_symbolic,
                            la::ColumnBlockJacobi& column) {
  const la::BackendOps& ops = la::install_backend(spec);
  Grid10Timing t;
  t.name = ops.name;
  constexpr int kReps = 41;
  std::vector<double> ms;

  la::BandedFactor factor(step_sys.matrix);  // warm storage
  if (factor.kind() != la::BandedFactor::Kind::kCholesky) {
    std::fprintf(stderr, "micro_kernels: 10x10 step matrix is not SPD\n");
  }
  t.chol_refactorize_ms =
      median_ms(kReps, [&] { factor.refactorize(step_sys.matrix); });

  for (int r = 0; r < kReps; ++r) {
    la::BandedMatrix copy = step_sys.matrix;
    const util::Stopwatch watch;
    const la::BandedLu lu(std::move(copy));
    ms.push_back(watch.elapsed_ms());
    benchmark::DoNotOptimize(lu.valid());
  }
  t.lu_refactorize_ms = median_of(ms);

  ms.clear();
  // One CG-solved backward-Euler step: stamps, column factor, CG.
  thermal::TransientStepper stepper(model, leak);
  stepper.reset(start);
  const thermal::ControlSetting setting{
      0.6 * model.config().fan.max_speed,
      0.5 * model.config().tec.max_current};
  for (int r = 0; r < kReps; ++r) {
    const util::Stopwatch watch;
    const bool ok = stepper.step(setting, dyn, 10e-3);
    ms.push_back(watch.elapsed_ms());
    if (!ok) break;
  }
  t.step_ms = median_of(ms);

  // 32 iterations per sample stay well short of convergence (≈ 56 at this
  // point), so every timed iteration does full work.
  constexpr std::size_t kCgIters = 32;
  const auto column_cg_iterations = [&] {
    return fused_cg_iterations(
        cg_sys.matrix, cg_sys.rhs,
        [&column](const double* r, double* z) { return column.apply(r, z); },
        kCgIters);
  };
  benchmark::DoNotOptimize(column_cg_iterations());
  t.cg_iteration_us =
      1e3 *
      median_ms(kReps,
                [&] { benchmark::DoNotOptimize(column_cg_iterations()); }) /
      static_cast<double>(kCgIters);

  // The column blocks and the coarse level refactored on the engine's
  // structure, as every Newton step and tangent batch does; 50 per sample.
  la::ColumnBlockJacobi solve_column;
  constexpr int kFactors = 50;
  t.column_factor_us = 1e3 * median_ms(kReps, [&] {
                         for (int i = 0; i < kFactors; ++i) {
                           benchmark::DoNotOptimize(solve_column.factor(
                               column_symbolic, cg_sys.matrix));
                         }
                       }) /
                       kFactors;

  // A cold solve to the engine's polish tolerance, the column factor
  // included: the iteration cost above times the iterations it takes.
  la::IterativeOptions cold;
  cold.tolerance = 1e-9;
  cold.max_iterations = 4 * cg_sys.rhs.size();
  cold.preconditioner = &solve_column;
  t.cg_solve_us = 1e3 * median_ms(kReps, [&] {
                    if (!solve_column.factor(column_symbolic, cg_sys.matrix)) {
                      return;
                    }
                    t.cg_solve_iterations =
                        la::solve_cg(cg_sys.matrix, cg_sys.rhs, cold)
                            .iterations;
                  });
  t.matvec_us = matvec_us(cg_sys.matrix, kReps);
  return t;
}

util::json::Value grid10_section() {
  const thermal::ThermalModel& model = model_for_grid(10);
  const la::Vector dyn = model.distribute(quicksort_peak());
  const std::vector<power::ExponentialTerm> leak =
      model.cell_leakage(paper_leakage());
  const la::Vector start(model.layout().node_count(), 330.0);
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (std::size_t i = 0; i < taylor.size(); ++i) {
    taylor[i] = power::tangent_linearize(leak[i], 330.0);
  }
  thermal::AssembledSystem step_sys =
      model.assemble(0.6 * model.config().fan.max_speed,
                     0.5 * model.config().tec.max_current, dyn, taylor);
  const la::Vector& cap = model.capacitances();
  for (std::size_t i = 0; i < cap.size(); ++i) {
    step_sys.matrix.add(i, i, cap[i] / 10e-3);
  }
  // The steady CG system SolveEngine solves at the same setting.
  const thermal::IncrementalAssembler assembler(model, dyn);
  thermal::CsrSystem cg_sys;
  assembler.assemble_csr(
      0.6 * model.config().fan.max_speed,
      la::Vector(dyn.size(), 0.5 * model.config().tec.max_current), taylor,
      cg_sys);
  const la::ColumnBlockSymbolic column_symbolic = assembler.column_structure();
  la::ColumnBlockJacobi column;
  if (!column.factor(column_symbolic, cg_sys.matrix)) {
    std::fprintf(stderr, "micro_kernels: 10x10 CG system is not SPD\n");
  }
  std::printf("10x10-grid backend timings (n = %zu, bandwidth = %zu, "
              "CG entries = %zu):\n",
              model.layout().node_count(), step_sys.matrix.lower_bandwidth(),
              cg_sys.matrix.nnz());

  std::vector<Grid10Timing> timings;
  for (const char* spec : {"scalar", "avx2", "avx512"}) {
    if (std::strcmp(spec, "avx2") == 0 && la::avx2_backend() == nullptr) {
      continue;
    }
    if (std::strcmp(spec, "avx512") == 0 && la::avx512_backend() == nullptr) {
      continue;
    }
    timings.push_back(measure_grid10(spec, step_sys, model, dyn, leak, start,
                                     cg_sys, column_symbolic, column));
  }

  util::json::Value chol = util::json::Value::object();
  util::json::Value lu = util::json::Value::object();
  util::json::Value step = util::json::Value::object();
  util::json::Value cg_iter = util::json::Value::object();
  util::json::Value column_factor = util::json::Value::object();
  util::json::Value cg_solve = util::json::Value::object();
  util::json::Value cg_solve_iters = util::json::Value::object();
  util::json::Value matvec = util::json::Value::object();
  for (const Grid10Timing& t : timings) {
    std::printf("  %-12s chol_refactorize %.3f ms | lu_refactorize %.3f ms | "
                "stepper step %.3f ms | cg iteration %.3f us | column factor "
                "%.2f us | cold cg solve %.1f us (%zu iterations) | matvec "
                "%.3f us\n",
                t.name.c_str(), t.chol_refactorize_ms, t.lu_refactorize_ms,
                t.step_ms, t.cg_iteration_us, t.column_factor_us,
                t.cg_solve_us, t.cg_solve_iterations, t.matvec_us);
    chol[t.name] = t.chol_refactorize_ms;
    lu[t.name] = t.lu_refactorize_ms;
    step[t.name] = t.step_ms;
    cg_iter[t.name] = t.cg_iteration_us;
    column_factor[t.name] = t.column_factor_us;
    cg_solve[t.name] = t.cg_solve_us;
    cg_solve_iters[t.name] = t.cg_solve_iterations;
    matvec[t.name] = t.matvec_us;
  }
  util::json::Value j = util::json::Value::object();
  j["nodes"] = model.layout().node_count();
  j["bandwidth"] = step_sys.matrix.lower_bandwidth();
  j["cg_entries"] = cg_sys.matrix.nnz();
  j["cholesky_refactorize_ms"] = chol;
  j["lu_refactorize_ms"] = lu;
  j["stepper_step_ms"] = step;
  j["cg_iteration_us"] = cg_iter;
  j["column_factor_us"] = column_factor;
  j["cg_solve_us"] = cg_solve;
  j["cg_solve_iterations"] = cg_solve_iters;
  j["matvec_us"] = matvec;
  if (timings.size() > 1) {
    const Grid10Timing& s = timings.front();
    const Grid10Timing& v = timings.back();
    j["cholesky_refactorize_speedup_simd_vs_scalar"] =
        s.chol_refactorize_ms / v.chol_refactorize_ms;
    j["lu_refactorize_speedup_simd_vs_scalar"] =
        s.lu_refactorize_ms / v.lu_refactorize_ms;
    j["stepper_step_speedup_simd_vs_scalar"] = s.step_ms / v.step_ms;
    j["cg_iteration_speedup_simd_vs_scalar"] =
        s.cg_iteration_us / v.cg_iteration_us;
    std::printf("  speedups (%s vs scalar): chol %.2fx, lu %.2fx, step "
                "%.2fx, cg iteration %.2fx\n", v.name.c_str(),
                s.chol_refactorize_ms / v.chol_refactorize_ms,
                s.lu_refactorize_ms / v.lu_refactorize_ms,
                s.step_ms / v.step_ms, s.cg_iteration_us / v.cg_iteration_us);
  }
  return j;
}

/// Runs the acceptance measurements and merges a "micro_kernels" section
/// into $OFTEC_BENCH_JSON / ./BENCH_transient.json. The acceptance targets
/// (refactorize >= 2.0x, steady solve >= 1.5x, simd vs scalar at 32×32) are
/// recorded alongside the measurements; the verdict prints loudly but does
/// not gate — shared-runner timings are informational (see ci.yml).
void run_speedup_section() {
  util::json::Value grid10 = grid10_section();
  la::install_backend(std::getenv("OFTEC_LA_BACKEND"));  // restore selection
  std::printf("32x32-grid backend speedups (n = 9219, bandwidth = 1025):\n");
  const thermal::ThermalModel& model = model_for_grid(32);
  const la::Vector dyn = model.distribute(quicksort_peak());
  // Linearize the real per-cell leakage (chord fit, as the steady solver
  // does): a synthetic uniform slope overwhelms the fine-grid cell
  // conductances and breaks positive definiteness at 32×32.
  const std::vector<power::ExponentialTerm> leak =
      model.cell_leakage(paper_leakage());
  std::vector<power::TaylorCoefficients> taylor(dyn.size());
  for (std::size_t i = 0; i < taylor.size(); ++i) {
    taylor[i] = power::chord_linearize(leak[i], 330.0);
  }
  // I = 0 keeps the system symmetric positive definite (Cholesky path);
  // I = 1 A folds the TEC terms in and forces the pivoted-LU path.
  const thermal::AssembledSystem spd = model.assemble(300.0, 0.0, dyn, taylor);
  const thermal::AssembledSystem gen = model.assemble(300.0, 1.0, dyn, taylor);
  const thermal::SteadySolver solver32(model, model.distribute(quicksort_peak()),
                                       model.cell_leakage(paper_leakage()));
  // The steady CG system at the SPD point, for the mat-vec row.
  thermal::CsrSystem cg_sys;
  thermal::IncrementalAssembler(model, dyn).assemble_csr(
      300.0, la::Vector(dyn.size(), 0.0), taylor, cg_sys);

  std::vector<BackendTiming> timings;
  timings.push_back(measure_backend("scalar", spd, gen, solver32, cg_sys));
  if (la::avx2_backend() != nullptr) {
    timings.push_back(measure_backend("avx2", spd, gen, solver32, cg_sys));
  }
  if (la::avx512_backend() != nullptr) {
    timings.push_back(measure_backend("avx512", spd, gen, solver32, cg_sys));
  }
  la::install_backend(std::getenv("OFTEC_LA_BACKEND"));  // restore selection

  util::json::Value chol = util::json::Value::object();
  util::json::Value lu = util::json::Value::object();
  util::json::Value steady = util::json::Value::object();
  util::json::Value pfold = util::json::Value::object();
  util::json::Value cgiter = util::json::Value::object();
  util::json::Value matvec = util::json::Value::object();
  for (const BackendTiming& t : timings) {
    std::printf("  %-12s chol_refactorize %8.1f ms | lu_refactorize %8.1f ms "
                "| steady %8.1f ms | panel_fold %.4f ms | cg_iter %.4f ms | "
                "matvec %.2f us\n",
                t.name.c_str(), t.chol_refactorize_ms, t.lu_refactorize_ms,
                t.steady_solve_ms, t.panel_fold_ms, t.fused_cg_iter_ms,
                t.matvec_us);
    chol[t.name] = t.chol_refactorize_ms;
    lu[t.name] = t.lu_refactorize_ms;
    steady[t.name] = t.steady_solve_ms;
    pfold[t.name] = t.panel_fold_ms;
    cgiter[t.name] = t.fused_cg_iter_ms;
    matvec[t.name] = t.matvec_us;
  }

  util::json::Value j = util::json::Value::object();
  j["grid_nx"] = std::size_t{32};
  j["nodes"] = model.layout().node_count();
  j["bandwidth"] = spd.matrix.lower_bandwidth();
  j["cholesky_refactorize_ms"] = chol;
  j["lu_refactorize_ms"] = lu;
  j["steady_solve_direct_ms"] = steady;
  j["panel_fold_ms_per_call_n8192"] = pfold;
  j["fused_cg_iter_ms_per_iter_n9219"] = cgiter;
  j["matvec_us_n9219"] = matvec;

  if (timings.size() > 1) {
    // Speedup of the auto-resolved simd flavor (last entry: the widest one
    // available) over scalar — the acceptance numbers.
    const BackendTiming& s = timings.front();
    const BackendTiming& v = timings.back();
    const double refac = s.chol_refactorize_ms / v.chol_refactorize_ms;
    const double refac_lu = s.lu_refactorize_ms / v.lu_refactorize_ms;
    const double steady_sp = s.steady_solve_ms / v.steady_solve_ms;
    j["refactorize_speedup_simd_vs_scalar"] = refac;
    j["lu_refactorize_speedup_simd_vs_scalar"] = refac_lu;
    j["steady_solve_speedup_simd_vs_scalar"] = steady_sp;
    j["panel_fold_speedup_simd_vs_scalar"] =
        s.panel_fold_ms / v.panel_fold_ms;
    j["fused_cg_iter_speedup_simd_vs_scalar"] =
        s.fused_cg_iter_ms / v.fused_cg_iter_ms;
    const bool ok = refac >= 2.0 && refac_lu >= 2.0 && steady_sp >= 1.5;
    j["acceptance_refactorize_ge_2x_steady_ge_1p5x"] = ok;
    std::printf("  speedups (%s vs scalar): refactorize %.2fx (chol) / "
                "%.2fx (lu), steady solve %.2fx -> %s\n", v.name.c_str(),
                refac, refac_lu, steady_sp,
                ok ? "PASS (>=2.0x / >=1.5x)" : "BELOW TARGET");
  } else {
    std::printf("  no simd flavor available; scalar-only measurements "
                "recorded\n");
  }
  j["grid10"] = std::move(grid10);
  update_bench_artifact("micro_kernels", j);
}

}  // namespace

int main(int argc, char** argv) {
  bool speedups_only = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedups-only") == 0) {
      speedups_only = true;
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;

  // The acceptance section factorizes n = 9219 repeatedly (about a minute);
  // it only runs when asked for, so filtered microbenchmark runs stay fast.
  if (speedups_only) {
    run_speedup_section();
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
