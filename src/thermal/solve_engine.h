// Batched steady-state solve engine — the one nonlinear steady solver.
//
// OFTEC's optimizer, every baseline controller, the Fig. 6 surface sweeps,
// the Pareto front, LUT construction, and the DTM loop's initial state all
// reduce to evaluating the same nonlinear steady-state system at many
// independent operating points (ω, I_TEC). Every one of them runs this
// engine (SteadySolver::solve builds a one-shot engine over its binding),
// which gets its throughput from four levers:
//
//   1. Incremental assembly — the matrix's operating-point dependence is
//      diagonal-only, so the static network is assembled once and each
//      point's system is a value-copy plus ~4 diagonal stamp groups
//      (thermal::IncrementalAssembler).
//   2. Warm-started inexact Newton — Krylov solves inside the Newton loop
//      start from the previous iterate and run at a loose tolerance until
//      the outer loop converges, then a final polish solve tightens the
//      result to the solver's reference tolerance. Every CG solve is
//      preconditioned by the z-column block-Jacobi factor of its matrix
//      (la/column_jacobi.h): the engine analyzes the column structure once,
//      and each solve refactors it in O(n) into its thread's workspace.
//   3. Factor reuse — direct-solve fallbacks (near thermal runaway, or when
//      use_iterative is off) factor through la::BandedFactor (banded
//      Cholesky, pivoted LU when the system is not positive definite), with
//      an LRU cache of factors keyed bit-exactly on
//      (ω, I_TEC, leakage linearization) so re-visited operating points hit
//      warm factors. Keys are exact, so a cache hit returns the factor of
//      an *identical* matrix and results never depend on hit order.
//   4. A runaway certificate — a Newton iterate reached through an SPD
//      matrix is a lower bound on every steady state, so when the matrix
//      linearized there is proven not SPD (a non-positive column or coarse
//      pivot, or CG meeting non-positive curvature) no steady state exists
//      and the point returns kRunaway without a direct solve
//      (docs/solver.md, "Runaway certificate").
//
// tangents() differentiates a converged state with respect to (ω, I) by the
// implicit-function theorem — one linear solve per parameter with the
// state's own Jacobian — which is how the optimizers get exact gradients
// (docs/solver.md, "Exact sensitivities").
//
// SolveBatch fans points across a self-scheduling thread pool (util/, one
// atomic cursor per job): every point is computed independently from the
// same deterministic initial guess, so the batched result vector is
// identical — exact, bit-for-bit — to the serial reference path at any
// thread count (enforced by tests/thermal/test_batched_vs_serial.cpp).
//
// Thread-safety contract: solve()/solve_batch() are const and safe to call
// concurrently; the factor cache and statistics are internally synchronized.
// The underlying SteadySolver and ThermalModel must outlive the engine and
// are never mutated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "la/column_jacobi.h"
#include "thermal/steady.h"
#include "util/thread_pool.h"

namespace oftec::thermal {

/// One independent evaluation request: shared TEC current at fan speed ω.
struct OperatingPoint {
  double omega = 0.0;    ///< fan speed [rad/s]
  double current = 0.0;  ///< TEC driving current [A]
};

struct EngineOptions {
  /// Worker threads for solve_batch(); 0 → OFTEC_THREADS env or hardware
  /// concurrency (util::ThreadPool::default_thread_count()).
  std::size_t threads = 0;
  /// Numeric factors kept warm: one LRU of exactly this many entries behind
  /// one mutex. Each factor holds (bandwidth+1)·n doubles — ~0.7 MB at the
  /// default 10×10 grid. 0 disables caching entirely.
  std::size_t factor_cache_capacity = 64;
  /// Try warm-started CG before the direct path. Off → every solve is a
  /// direct cached factorization, which exercises the factor cache
  /// exclusively.
  bool use_iterative = true;
};

/// Point-in-time snapshot of the engine's internally-atomic counters.
/// stats() may be called concurrently with solves; the snapshot is
/// per-counter consistent (each field is a single relaxed load, so totals
/// from an in-flight solve may be partially visible — never torn).
/// reset_stats() zeroes the accumulators: counters observed afterwards
/// belong to the new epoch, and in-flight solves split their increments
/// across the boundary. The same counters are mirrored into the process-wide
/// oftec::obs registry (when enabled) under the "solve_engine." prefix.
struct EngineStats {
  std::size_t points = 0;           ///< operating points evaluated
  std::size_t linear_solves = 0;    ///< linear systems solved (Newton iters)
  std::size_t cg_iterations = 0;    ///< Krylov iterations of those solves
  std::size_t factorizations = 0;   ///< Newton (re)factorizations performed
  std::size_t factor_hits = 0;      ///< LRU factor cache hits
  std::size_t direct_fallbacks = 0; ///< Newton solves that took the direct path
  /// Factorizations whose matrix was not positive definite and took the
  /// pivoted LU (near-runaway matrices only).
  std::size_t lu_fallbacks = 0;
  /// Points declared runaway by the certificate, without a direct solve.
  std::size_t runaway_certificates = 0;
  /// tangents() work: one linear solve per parameter, its Krylov
  /// iterations, and the factorizations of its direct fallback. Kept apart
  /// from linear_solves / cg_iterations / factorizations / lu_fallbacks,
  /// which count Newton work only.
  std::size_t sensitivity_solves = 0;
  std::size_t sensitivity_cg_iterations = 0;
  std::size_t sensitivity_factorizations = 0;
};

class SolveEngine {
 public:
  /// Wraps a binding (model + workload + options). Its LeakageMode,
  /// tolerances, and runaway threshold all apply.
  explicit SolveEngine(const SteadySolver& solver, EngineOptions options = {});
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  [[nodiscard]] const SteadySolver& solver() const noexcept {
    return *solver_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

  /// Evaluate one operating point (thread-safe, deterministic).
  [[nodiscard]] SteadyResult solve(const OperatingPoint& point) const;

  /// Multi-zone variant: an independent driving current per cell (entries
  /// for uncovered cells are ignored). Same determinism guarantees as
  /// solve().
  [[nodiscard]] SteadyResult solve_cells(double omega,
                                         const la::Vector& cell_current) const;

  /// Reference serial path: solve() per point, in order, on the caller's
  /// thread. Batched execution must match this exactly.
  [[nodiscard]] std::vector<SteadyResult> solve_serial(
      const std::vector<OperatingPoint>& points) const;

  /// Fan the batch across the engine's pool (created lazily from
  /// options().threads). Results are ordered by input index.
  [[nodiscard]] std::vector<SteadyResult> solve_batch(
      const std::vector<OperatingPoint>& points) const;

  /// Same, on a caller-provided pool.
  [[nodiscard]] std::vector<SteadyResult> solve_batch(
      const std::vector<OperatingPoint>& points, util::ThreadPool& pool) const;

  /// Tangents of the converged steady state `temperatures` at
  /// (ω, cell_current): ∂T/∂ω first, then ∂T/∂s for each entry of
  /// `current_directions`, along which the per-cell currents move as
  /// I + s·direction. Each solves J·∂T/∂p = −∂R/∂p (implicit-function
  /// theorem) with J the residual's Jacobian at the state — for
  /// kNewtonExact the Newton matrix linearized at its chip temperatures —
  /// by column-preconditioned CG at the polish tolerance, falling back to
  /// la::BandedFactor. Empty when J is singular or an answer is not
  /// finite. Thread-safe and deterministic; counted as sensitivity work.
  [[nodiscard]] std::vector<la::Vector> tangents(
      double omega, const la::Vector& cell_current,
      const la::Vector& temperatures,
      const std::vector<la::Vector>& current_directions) const;

  [[nodiscard]] EngineStats stats() const;

  /// Zero the stats accumulators (see EngineStats for epoch semantics).
  /// The factor cache contents are untouched.
  void reset_stats() const;

 private:
  struct FactorCache;
  struct Workspace;

  /// How one linearized solve ended.
  enum class Step {
    kSolved,     ///< `out` holds a physical solution
    kSpdSolved,  ///< same, through a matrix that showed itself SPD
    kFailed,     ///< no physical solution, even on the direct path
    kNotSpd,     ///< the certificate: proven not SPD at a lower bound
  };

  /// Core path: ws.cell_current must already hold the per-cell currents.
  [[nodiscard]] SteadyResult solve_point(double omega, Workspace& ws) const;
  [[nodiscard]] SteadyResult solve_point_impl(double omega,
                                              Workspace& ws) const;
  /// Leakage linearization of the active LeakageMode; `chip` (the chip
  /// temperatures) is read only by kNewtonExact.
  void linearize(const la::Vector& chip,
                 std::vector<power::TaylorCoefficients>& taylor) const;
  /// Solve one linearized system. `at_bound`: the linearization point is a
  /// proven lower bound on every steady state, so a proof that the matrix
  /// is not SPD ends the solve with kNotSpd instead of the direct path.
  [[nodiscard]] Step solve_linear(
      double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& taylor, double tolerance,
      bool at_bound, Workspace& ws, la::Vector& out) const;
  [[nodiscard]] Step solve_direct(
      double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& taylor, Workspace& ws,
      la::Vector& out) const;
  [[nodiscard]] bool physical(const la::Vector& temperatures) const;

  const SteadySolver* solver_;
  EngineOptions options_;
  IncrementalAssembler assembler_;
  /// Column structure of the assembler's fixed sparse pattern. It lives here,
  /// never in a Workspace: solve_batch's thread-local workspaces are shared
  /// by every engine that runs on a thread.
  la::ColumnBlockSymbolic column_symbolic_;
  std::unique_ptr<FactorCache> cache_;
  mutable std::unique_ptr<util::ThreadPool> pool_;  // lazy
  mutable std::mutex pool_mutex_;
};

}  // namespace oftec::thermal
