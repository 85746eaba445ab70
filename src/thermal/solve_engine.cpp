#include "thermal/solve_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <list>
#include <map>
#include <mutex>
#include <new>
#include <stdexcept>
#include <utility>

#include "la/banded_factor.h"
#include "la/iterative.h"
#include "util/fault.h"
#include "util/obs.h"

namespace oftec::thermal {

namespace {

/// Krylov tolerance for intermediate Newton iterations; the reported state
/// is always polished to SteadyOptions::iterative_tolerance.
constexpr double kInnerTolerance = 1e-6;

std::uint64_t bits_of(double x) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Registry mirrors of the per-engine counters (names: docs/observability.md).
const obs::Counter g_obs_points = obs::counter("solve_engine.points");
const obs::Counter g_obs_linear_solves =
    obs::counter("solve_engine.linear_solves");
const obs::Counter g_obs_cg_iterations_total =
    obs::counter("solve_engine.cg_iterations_total");
const obs::Counter g_obs_factorizations =
    obs::counter("solve_engine.factorizations");
const obs::Counter g_obs_factor_hits = obs::counter("solve_engine.factor_hits");
const obs::Counter g_obs_direct_fallbacks =
    obs::counter("solve_engine.direct_fallbacks");
const obs::Counter g_obs_lu_fallbacks =
    obs::counter("solve_engine.lu_fallbacks");
const obs::Counter g_obs_runaway_certificates =
    obs::counter("solve_engine.runaway_certificates");
const obs::Counter g_obs_sensitivity_solves =
    obs::counter("solve_engine.sensitivity_solves");
const obs::Counter g_obs_sensitivity_cg_iterations =
    obs::counter("solve_engine.sensitivity_cg_iterations");
const obs::Counter g_obs_sensitivity_factorizations =
    obs::counter("solve_engine.sensitivity_factorizations");
const obs::Gauge g_obs_factor_hit_rate =
    obs::gauge("solve_engine.factor_hit_rate");
const obs::Histogram g_obs_cg_iterations = obs::histogram(
    "solve_engine.cg_iterations",
    {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
const obs::Histogram g_obs_newton_iterations =
    obs::histogram("solve_engine.newton_iterations",
                   {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});

}  // namespace

// ---------------------------------------------------------------------------
// Factor cache
// ---------------------------------------------------------------------------

/// The matrix M(ω, I, linearization) is fully determined by ω, the per-cell
/// currents, and the per-cell leakage slopes (intercepts only move the rhs).
/// Keys compare the raw IEEE-754 bits of exactly those inputs, so a hit
/// always returns the factor of a bit-identical matrix — correctness and
/// determinism never depend on quantization or hit order.
struct FactorKey {
  std::uint64_t omega = 0;
  std::vector<std::uint64_t> current;
  std::vector<std::uint64_t> slope;

  friend bool operator<(const FactorKey& a, const FactorKey& b) noexcept {
    if (a.omega != b.omega) return a.omega < b.omega;
    if (a.current != b.current) return a.current < b.current;
    return a.slope < b.slope;
  }
};

/// A cached direct factorization (la::BandedFactor: Cholesky when the
/// system is SPD, pivoted LU otherwise — near runaway the TEC/leakage terms
/// can push the matrix indefinite). Const-thread-safe once built.
using FactorEntry = std::shared_ptr<const la::BandedFactor>;

/// LRU of at most `capacity` factors behind one mutex. Correctness never
/// depends on what it holds: keys are exact, so a hit returns the factor of
/// a bit-identical matrix, and eviction order never influences results.
struct SolveEngine::FactorCache {
  using LruList = std::list<std::pair<FactorKey, FactorEntry>>;

  explicit FactorCache(std::size_t cap) : capacity(cap) {}

  std::mutex mutex;
  LruList lru;  // front = most recently used
  std::map<FactorKey, LruList::iterator> index;
  const std::size_t capacity;

  std::atomic<std::size_t> points{0};
  std::atomic<std::size_t> linear_solves{0};
  std::atomic<std::size_t> cg_iterations{0};
  std::atomic<std::size_t> factorizations{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> direct_fallbacks{0};
  std::atomic<std::size_t> lu_fallbacks{0};
  std::atomic<std::size_t> certificates{0};
  std::atomic<std::size_t> sensitivity_solves{0};
  std::atomic<std::size_t> sensitivity_cg_iterations{0};
  std::atomic<std::size_t> sensitivity_factorizations{0};

  [[nodiscard]] bool find(const FactorKey& key, FactorEntry& out) {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = index.find(key);
    if (it == index.end()) return false;
    lru.splice(lru.begin(), lru, it->second);
    out = lru.front().second;
    hits.fetch_add(1, std::memory_order_relaxed);
    g_obs_factor_hits.add();
    return true;
  }

  void reset_counters() {
    points.store(0, std::memory_order_relaxed);
    linear_solves.store(0, std::memory_order_relaxed);
    cg_iterations.store(0, std::memory_order_relaxed);
    factorizations.store(0, std::memory_order_relaxed);
    hits.store(0, std::memory_order_relaxed);
    direct_fallbacks.store(0, std::memory_order_relaxed);
    lu_fallbacks.store(0, std::memory_order_relaxed);
    certificates.store(0, std::memory_order_relaxed);
    sensitivity_solves.store(0, std::memory_order_relaxed);
    sensitivity_cg_iterations.store(0, std::memory_order_relaxed);
    sensitivity_factorizations.store(0, std::memory_order_relaxed);
  }

  /// Factor `matrix`, counting the factorization (and its LU fallback);
  /// nullptr when it is singular even under pivoting.
  [[nodiscard]] FactorEntry factorize(const la::BandedMatrix& matrix) {
    factorizations.fetch_add(1, std::memory_order_relaxed);
    g_obs_factorizations.add();
    FactorEntry e;
    try {
      e = std::make_shared<const la::BandedFactor>(matrix);
    } catch (const std::runtime_error&) {
      return nullptr;
    }
    if (e->kind() == la::BandedFactor::Kind::kLu) {
      lu_fallbacks.fetch_add(1, std::memory_order_relaxed);
      g_obs_lu_fallbacks.add();
    }
    return e;
  }

  void erase(const FactorKey& key) {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = index.find(key);
    if (it == index.end()) return;
    lru.erase(it->second);
    index.erase(it);
  }

  void insert(FactorKey key, FactorEntry entry) {
    if (capacity == 0) return;
    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = index.find(key); it != index.end()) {
      // Another thread factored the same point concurrently; keep the
      // incumbent (identical by construction) and refresh its recency.
      lru.splice(lru.begin(), lru, it->second);
      return;
    }
    lru.emplace_front(std::move(key), std::move(entry));
    index.emplace(lru.front().first, lru.begin());
    if (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
    }
  }
};

// ---------------------------------------------------------------------------
// Per-solve workspace (one per thread of execution; never shared)
// ---------------------------------------------------------------------------

struct SolveEngine::Workspace {
  CsrSystem csr;
  std::vector<power::TaylorCoefficients> taylor;
  la::Vector cell_current;
  la::Vector warm;         // previous iterate for Krylov warm starts
  bool have_warm = false;  // reset at the start of every operating point
  la::CgWorkspace cg;      // CG iteration vectors, reused across solves
  la::ColumnBlockJacobi column;  // refactored for every CG solve
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SolveEngine::SolveEngine(const SteadySolver& solver, EngineOptions options)
    : solver_(&solver),
      options_(options),
      assembler_(solver.model(), solver.cell_dynamic_power()),
      column_symbolic_(assembler_.column_structure()) {
  cache_ = std::make_unique<FactorCache>(options_.factor_cache_capacity);
}

SolveEngine::~SolveEngine() = default;

EngineStats SolveEngine::stats() const {
  EngineStats s;
  s.points = cache_->points.load(std::memory_order_relaxed);
  s.linear_solves = cache_->linear_solves.load(std::memory_order_relaxed);
  s.cg_iterations = cache_->cg_iterations.load(std::memory_order_relaxed);
  s.factorizations = cache_->factorizations.load(std::memory_order_relaxed);
  s.factor_hits = cache_->hits.load(std::memory_order_relaxed);
  s.direct_fallbacks = cache_->direct_fallbacks.load(std::memory_order_relaxed);
  s.lu_fallbacks = cache_->lu_fallbacks.load(std::memory_order_relaxed);
  s.runaway_certificates =
      cache_->certificates.load(std::memory_order_relaxed);
  s.sensitivity_solves =
      cache_->sensitivity_solves.load(std::memory_order_relaxed);
  s.sensitivity_cg_iterations =
      cache_->sensitivity_cg_iterations.load(std::memory_order_relaxed);
  s.sensitivity_factorizations =
      cache_->sensitivity_factorizations.load(std::memory_order_relaxed);
  return s;
}

void SolveEngine::reset_stats() const { cache_->reset_counters(); }

bool SolveEngine::physical(const la::Vector& temperatures) const {
  const double runaway = solver_->options().runaway_temperature;
  for (const double t : temperatures) {
    if (!std::isfinite(t) || t <= 0.0 || t > runaway) return false;
  }
  return true;
}

SolveEngine::Step SolveEngine::solve_direct(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& taylor, Workspace& ws,
    la::Vector& out) const {
  static const fault::Site factor_corrupt =
      fault::site("solve_engine.factor_corrupt");
  cache_->direct_fallbacks.fetch_add(1, std::memory_order_relaxed);
  g_obs_direct_fallbacks.add();

  FactorKey key;
  key.omega = bits_of(omega);
  key.current.reserve(cell_current.size());
  for (const double c : cell_current) key.current.push_back(bits_of(c));
  key.slope.reserve(taylor.size());
  for (const power::TaylorCoefficients& tc : taylor) {
    key.slope.push_back(bits_of(tc.a));
  }

  // The band is built only to be factored: a cache hit needs just the rhs.
  const auto factorize = [&] {
    return cache_->factorize(
        assembler_.assemble_banded(omega, cell_current, taylor).matrix);
  };

  // A null factor means singular even under pivoting: runaway.
  FactorEntry entry;
  const bool hit = cache_->find(key, entry);
  if (!hit) {
    entry = factorize();
    if (!entry) return Step::kFailed;
    cache_->insert(key, entry);
  }

  if (obs::enabled()) {
    const auto hits =
        static_cast<double>(cache_->hits.load(std::memory_order_relaxed));
    const auto misses = static_cast<double>(
        cache_->factorizations.load(std::memory_order_relaxed));
    if (hits + misses > 0.0) {
      g_obs_factor_hit_rate.set(hits / (hits + misses));
    }
  }

  la::Vector rhs;
  assembler_.assemble_rhs(omega, cell_current, taylor, rhs);
  out = entry->solve(rhs);
  if (hit && factor_corrupt.should_fail()) {
    // Simulate a rotted cached factor: the numbers come back garbage.
    for (double& t : out) t = std::numeric_limits<double>::quiet_NaN();
  }
  if (!physical(out)) {
    // fresh factor: the point is genuinely runaway
    if (!hit) return Step::kFailed;
    // Self-healing: a cached factor produced a non-physical solution where a
    // fresh factorization might not (corruption, or a stale borderline
    // factor). Evict it, refactorize from the assembled matrix, retry once.
    cache_->erase(key);
    entry = factorize();
    if (!entry) return Step::kFailed;
    out = entry->solve(rhs);
    cache_->insert(std::move(key), entry);
    if (!physical(out)) return Step::kFailed;
  }
  ws.warm = out;
  ws.have_warm = true;
  return entry->kind() == la::BandedFactor::Kind::kCholesky ? Step::kSpdSolved
                                                             : Step::kSolved;
}

SolveEngine::Step SolveEngine::solve_linear(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& taylor, double tolerance,
    bool at_bound, Workspace& ws, la::Vector& out) const {
  if (options_.use_iterative) {
    assembler_.assemble_csr(omega, cell_current, taylor, ws.csr);
    // All operating-point terms are diagonal, so M stays symmetric and CG
    // applies. A non-positive column or coarse pivot proves M is not SPD
    // (the entries are finite: the linearization point passed physical()).
    // At a lower bound that is the runaway certificate; elsewhere the solve
    // keeps diagonal Jacobi, and an indefinite system falls to the pivoted
    // direct path below.
    const bool column_spd = ws.column.factor(column_symbolic_, ws.csr.matrix);
    if (!column_spd && at_bound) return Step::kNotSpd;
    cache_->linear_solves.fetch_add(1, std::memory_order_relaxed);
    g_obs_linear_solves.add();
    la::IterativeOptions iopts;
    iopts.tolerance = tolerance;
    iopts.max_iterations = 4 * ws.csr.rhs.size();
    if (ws.have_warm) iopts.initial_guess = &ws.warm;
    iopts.workspace = &ws.cg;  // allocation-free across the Newton loop
    if (column_spd) iopts.preconditioner = &ws.column;
    const la::IterativeResult it =
        la::solve_cg(ws.csr.matrix, ws.csr.rhs, iopts);
    cache_->cg_iterations.fetch_add(it.iterations, std::memory_order_relaxed);
    g_obs_cg_iterations_total.add(it.iterations);
    if (obs::enabled()) {
      g_obs_cg_iterations.observe(static_cast<double>(it.iterations));
    }
    if (it.converged && physical(it.x)) {
      out = it.x;
      ws.warm = out;
      ws.have_warm = true;
      return column_spd ? Step::kSpdSolved : Step::kSolved;
    }
    // Only an explicit proof counts: a stall or an exhausted budget says
    // nothing about definiteness and takes the direct path.
    if (it.indefinite && at_bound) return Step::kNotSpd;
  } else {
    cache_->linear_solves.fetch_add(1, std::memory_order_relaxed);
    g_obs_linear_solves.add();
  }
  return solve_direct(omega, cell_current, taylor, ws, out);
}

SteadyResult SolveEngine::solve_point(double omega, Workspace& ws) const {
  static const fault::Site alloc_fail = fault::site("solve_engine.alloc_fail");
  static const fault::Site nonconverge =
      fault::site("solve_engine.nonconverge");
  static const fault::Site nan_escape = fault::site("solve_engine.nan");
  OBS_SPAN("solve_engine.solve_point");
  cache_->points.fetch_add(1, std::memory_order_relaxed);
  g_obs_points.add();
  if (alloc_fail.should_fail()) {
    throw std::bad_alloc();  // what a failed Workspace/factor alloc raises
  }
  SteadyResult result = solve_point_impl(omega, ws);
  if (nonconverge.should_fail() && result.converged) {
    result.converged = false;
    result.status = SolveStatus::kNotConverged;
  }
  if (nan_escape.should_fail() && !result.temperatures.empty()) {
    result.temperatures.front() = std::numeric_limits<double>::quiet_NaN();
    result.max_chip_temperature = std::numeric_limits<double>::quiet_NaN();
  }
  // Sanitize barrier: a non-runaway result must be entirely finite. Anything
  // non-finite that slipped through (injected or real) is demoted to a
  // structured numerical-error verdict; NaN can never masquerade as success.
  if (!result.runaway) {
    bool finite = std::isfinite(result.max_chip_temperature) &&
                  std::isfinite(result.leakage_power) &&
                  std::isfinite(result.tec_power);
    for (std::size_t i = 0; finite && i < result.temperatures.size(); ++i) {
      finite = std::isfinite(result.temperatures[i]);
    }
    if (!finite) {
      result =
          make_runaway_result(result.iterations, SolveStatus::kNumericalError);
    }
  }
  if (obs::enabled()) {
    g_obs_newton_iterations.observe(static_cast<double>(result.iterations));
  }
  return result;
}

void SolveEngine::linearize(
    const la::Vector& chip,
    std::vector<power::TaylorCoefficients>& taylor) const {
  const SteadyOptions& sopts = solver_->options();
  const std::vector<power::ExponentialTerm>& leakage = solver_->cell_leakage();
  const double ambient = solver_->model().config().ambient;
  taylor.resize(leakage.size());
  for (std::size_t i = 0; i < leakage.size(); ++i) {
    switch (sopts.mode) {
      case LeakageMode::kConstant:
        taylor[i] = {0.0, leakage[i].evaluate(ambient), ambient};
        break;
      case LeakageMode::kChordLinear:
        // The paper's chord: 10 samples over [300, 390] K.
        taylor[i] = power::chord_linearize(leakage[i], ambient);
        break;
      case LeakageMode::kNewtonExact:
        taylor[i] = power::tangent_linearize(leakage[i], chip[i]);
        break;
    }
  }
}

SteadyResult SolveEngine::solve_point_impl(double omega, Workspace& ws) const {
  const ThermalModel& model = solver_->model();
  const SteadyOptions& sopts = solver_->options();
  const std::vector<power::ExponentialTerm>& leakage = solver_->cell_leakage();
  const std::size_t cells = model.layout().cells_per_layer();

  ws.have_warm = false;  // determinism: no state leaks between points
  const double polish_tol = sopts.iterative_tolerance;
  la::Vector t_ref(cells, model.config().ambient + 10.0);
  la::Vector temps;

  if (sopts.mode != LeakageMode::kNewtonExact) {
    // The constant and chord lines do not depend on the operating point:
    // one linear solve is exact for these models.
    linearize(t_ref, ws.taylor);
    if (solve_linear(omega, ws.cell_current, ws.taylor, polish_tol,
                     /*at_bound=*/false, ws, temps) == Step::kFailed) {
      return make_runaway_result(1);
    }
    return make_steady_result(model, std::move(temps), true, 1,
                              ws.cell_current, leakage);
  }

  // Inexact Newton: intermediate linearizations only steer the outer loop,
  // so their solves run at the loose inner tolerance (warm-started from the
  // previous iterate); once the outer loop converges, one polish solve at
  // the reference tolerance produces the reported state.
  //
  // at_bound tracks the runaway certificate's premise: the residual is
  // concave in T and every Newton matrix is a symmetric Z-matrix, so an
  // iterate reached through an SPD matrix (nonnegative inverse) lies below
  // every steady state. The first guess is not such an iterate.
  const double inner_tol = std::min(kInnerTolerance, polish_tol * 1e3);
  bool at_bound = false;
  for (std::size_t it = 1; it <= sopts.max_iterations; ++it) {
    linearize(t_ref, ws.taylor);
    const Step step = solve_linear(omega, ws.cell_current, ws.taylor,
                                   inner_tol, at_bound, ws, temps);
    if (step == Step::kNotSpd) {
      cache_->certificates.fetch_add(1, std::memory_order_relaxed);
      g_obs_runaway_certificates.add();
      return make_runaway_result(it);
    }
    if (step == Step::kFailed) return make_runaway_result(it);
    at_bound = step == Step::kSpdSolved;
    const la::Vector chip = model.slab_temperatures(temps, Slab::kChip);
    const double diff = la::max_abs_diff(chip, t_ref);
    t_ref = chip;
    if (diff < sopts.tolerance) {
      if (inner_tol > polish_tol) {
        linearize(t_ref, ws.taylor);
        if (solve_linear(omega, ws.cell_current, ws.taylor, polish_tol,
                         /*at_bound=*/false, ws, temps) == Step::kFailed) {
          return make_runaway_result(it);
        }
      }
      return make_steady_result(model, std::move(temps), true, it,
                                ws.cell_current, leakage);
    }
  }
  const double max_chip = model.max_slab_temperature(temps, Slab::kChip);
  if (max_chip > sopts.runaway_temperature - 50.0) {
    return make_runaway_result(sopts.max_iterations);
  }
  return make_steady_result(model, std::move(temps), false,
                            sopts.max_iterations, ws.cell_current, leakage);
}

std::vector<la::Vector> SolveEngine::tangents(
    double omega, const la::Vector& cell_current,
    const la::Vector& temperatures,
    const std::vector<la::Vector>& current_directions) const {
  OBS_SPAN("solve_engine.tangents");
  const ThermalModel& model = solver_->model();
  if (cell_current.size() != model.layout().cells_per_layer() ||
      temperatures.size() != model.layout().node_count()) {
    throw std::invalid_argument("SolveEngine::tangents: arity mismatch");
  }
  std::vector<la::Vector> rhs(1 + current_directions.size());
  model.omega_sensitivity_rhs(omega, temperatures, rhs[0]);
  for (std::size_t k = 0; k < current_directions.size(); ++k) {
    model.current_sensitivity_rhs(cell_current, current_directions[k],
                                  temperatures, rhs[k + 1]);
  }

  Workspace ws;
  linearize(model.slab_temperatures(temperatures, Slab::kChip), ws.taylor);
  bool column_spd = false;
  if (options_.use_iterative) {
    assembler_.assemble_csr(omega, cell_current, ws.taylor, ws.csr);
    column_spd = ws.column.factor(column_symbolic_, ws.csr.matrix);
  }
  const auto finite = [](const la::Vector& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  FactorEntry direct;  // factored on the first solve CG cannot finish
  std::vector<la::Vector> out(rhs.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    cache_->sensitivity_solves.fetch_add(1, std::memory_order_relaxed);
    g_obs_sensitivity_solves.add();
    if (column_spd) {
      la::IterativeOptions iopts;
      iopts.tolerance = solver_->options().iterative_tolerance;
      iopts.max_iterations = 4 * rhs[k].size();
      iopts.workspace = &ws.cg;
      iopts.preconditioner = &ws.column;
      la::IterativeResult it = la::solve_cg(ws.csr.matrix, rhs[k], iopts);
      cache_->sensitivity_cg_iterations.fetch_add(it.iterations,
                                                  std::memory_order_relaxed);
      g_obs_sensitivity_cg_iterations.add(it.iterations);
      if (it.converged && finite(it.x)) {
        out[k] = std::move(it.x);
        continue;
      }
    }
    if (!direct) {
      cache_->sensitivity_factorizations.fetch_add(1,
                                                   std::memory_order_relaxed);
      g_obs_sensitivity_factorizations.add();
      try {
        direct = std::make_shared<const la::BandedFactor>(
            assembler_.assemble_banded(omega, cell_current, ws.taylor).matrix);
      } catch (const std::runtime_error&) {
        return {};  // singular even under pivoting
      }
    }
    out[k] = direct->solve(rhs[k]);
    if (!finite(out[k])) return {};
  }
  return out;
}

SteadyResult SolveEngine::solve(const OperatingPoint& point) const {
  Workspace ws;
  ws.cell_current.assign(solver_->model().layout().cells_per_layer(),
                         point.current);
  return solve_point(point.omega, ws);
}

SteadyResult SolveEngine::solve_cells(double omega,
                                      const la::Vector& cell_current) const {
  if (cell_current.size() != solver_->model().layout().cells_per_layer()) {
    throw std::invalid_argument("SolveEngine::solve_cells: arity mismatch");
  }
  Workspace ws;
  ws.cell_current = cell_current;
  return solve_point(omega, ws);
}

std::vector<SteadyResult> SolveEngine::solve_serial(
    const std::vector<OperatingPoint>& points) const {
  const std::size_t cells = solver_->model().layout().cells_per_layer();
  std::vector<SteadyResult> results(points.size());
  Workspace ws;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ws.cell_current.assign(cells, points[i].current);
    results[i] = solve_point(points[i].omega, ws);
  }
  return results;
}

std::vector<SteadyResult> SolveEngine::solve_batch(
    const std::vector<OperatingPoint>& points, util::ThreadPool& pool) const {
  const std::size_t cells = solver_->model().layout().cells_per_layer();
  std::vector<SteadyResult> results(points.size());
  // Per-worker workspaces would need worker ids; a thread_local scratch
  // gives the same reuse without plumbing them through the pool API.
  pool.parallel_for(points.size(), [&](std::size_t i) {
    static thread_local Workspace ws;
    ws.cell_current.assign(cells, points[i].current);
    results[i] = solve_point(points[i].omega, ws);
  });
  return results;
}

std::vector<SteadyResult> SolveEngine::solve_batch(
    const std::vector<OperatingPoint>& points) const {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_) {
      pool_ = std::make_unique<util::ThreadPool>(options_.threads);
    }
  }
  return solve_batch(points, *pool_);
}

}  // namespace oftec::thermal
