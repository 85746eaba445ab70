// Preconditioned conjugate gradient for the thermal systems.
//
// Every operating-point term of the thermal system M(ω, I)·T = rhs is
// diagonal — the sink conductance g(ω), the leakage slope on the chip cells,
// and the Peltier stamps ±α·I on the TEC absorb/reject nodes — so M stays
// symmetric, and positive definite wherever the point is physical. CG
// therefore carries the thermal solves: thermal::SolveEngine runs
// warm-started CG first, preconditioned by the z-column block-Jacobi factor
// of la/column_jacobi.h, and drops to a direct banded factorization only
// when CG fails near runaway. Bare SparseMatrix callers get diagonal Jacobi.
//
// One CG iteration is four backend calls (la/backend.h): the SELL-8 mat-vec
// with p·Ap fused in, the x/r update with ‖r‖², the preconditioner (column
// slab sweeps plus r·z, or the fused Jacobi product), and the search
// direction refresh. Under the scalar backend every reduction is the seed's
// sequential sum; under simd each is the fixed 8-lane tree, so one solve's
// bits depend on the backend flavor (scalar vs simd) and on nothing else.
#pragma once

#include <cstddef>

#include "la/column_jacobi.h"
#include "la/sparse.h"
#include "la/vector_ops.h"

namespace oftec::la {

/// Result of an iterative solve.
struct IterativeResult {
  Vector x;                 ///< solution (last iterate if not converged)
  bool converged = false;   ///< residual tolerance reached
  std::size_t iterations = 0;
  double residual_norm = 0.0;  ///< final ‖b − A·x‖₂
  /// solve_cg only: a nonzero search direction p had pᵀA·p ≤ 0, which
  /// proves A is not positive definite. Never set from non-convergence
  /// alone: a stall or an exhausted budget leaves it false.
  bool indefinite = false;
};

/// Reusable scratch for solve_cg. A caller that solves in a loop (the
/// steady-state Newton iteration, transient stepping) passes one of these
/// via IterativeOptions so the four iteration vectors are allocated once and
/// recycled; results are bit-identical with or without it.
struct CgWorkspace {
  Vector r;   ///< residual
  Vector z;   ///< preconditioned residual
  Vector p;   ///< search direction
  Vector ap;  ///< A·p
};

/// Options for solve_cg.
struct IterativeOptions {
  double tolerance = 1e-10;      ///< relative residual target ‖r‖/‖b‖
  std::size_t max_iterations = 0;  ///< 0 → 10·n
  /// Optional warm start (must have size n when set). Krylov iterations then
  /// run on the residual system, which cuts the iteration count sharply when
  /// the guess is close — e.g. successive Newton linearizations of the
  /// steady-state thermal system. Not owned; must outlive the call.
  const Vector* initial_guess = nullptr;
  /// Optional scratch reused across solve_cg calls. Not owned; must
  /// outlive the call.
  CgWorkspace* workspace = nullptr;
  /// Optional successfully factored column block-Jacobi preconditioner.
  /// When set it replaces diagonal Jacobi; its size must be n. Not owned;
  /// must outlive the call. Its apply() writes the object's coarse scratch,
  /// so solves that run at the same time must not share one.
  ColumnBlockJacobi* preconditioner = nullptr;
};

/// Preconditioned conjugate gradient for symmetric A. When A is not SPD the
/// iteration may meet non-positive curvature; it then stops unconverged
/// with IterativeResult::indefinite set.
[[nodiscard]] IterativeResult solve_cg(const SparseMatrix& a,
                                       const Vector& b,
                                       const IterativeOptions& opts = {});

}  // namespace oftec::la
