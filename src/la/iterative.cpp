#include "la/iterative.h"

#include <cmath>
#include <stdexcept>

#include "la/backend.h"
#include "util/fault.h"
#include "util/obs.h"

namespace oftec::la {

namespace {

const obs::Counter g_obs_cg_solves = obs::counter("la.cg.solves");
const obs::Counter g_obs_cg_iterations = obs::counter("la.cg.iterations_total");

/// Counts one solve (and its final iteration count) on every exit path.
struct IterTally {
  const IterativeResult& res;
  ~IterTally() {
    g_obs_cg_solves.add();
    g_obs_cg_iterations.add(res.iterations);
  }
};

[[nodiscard]] Vector jacobi_inverse_diagonal(const SparseMatrix& a) {
  Vector inv_d(a.size(), 1.0);
  const Vector d = a.diagonal();
  for (std::size_t i = 0; i < d.size(); ++i) {
    inv_d[i] = d[i] != 0.0 ? 1.0 / d[i] : 1.0;
  }
  return inv_d;
}

/// Initialize x and r = b − A·x from the optional warm start. The warm
/// residual goes through the fused SparseMatrix::residual_into (one pass, no
/// temporary; bit-identical to the multiply + axpy(−1) it replaced).
void init_iterate(const SparseMatrix& a, const Vector& b,
                  const IterativeOptions& opts, Vector& x, Vector& r) {
  if (opts.initial_guess != nullptr && opts.initial_guess->size() == b.size()) {
    x = *opts.initial_guess;
    a.residual_into(b, x, r);
  } else {
    x.assign(b.size(), 0.0);
    r = b;
  }
}

}  // namespace

IterativeResult solve_cg(const SparseMatrix& a, const Vector& b,
                         const IterativeOptions& opts) {
  static const fault::Site cg_stall = fault::site("la.cg_stall");
  const std::size_t n = a.size();
  if (cg_stall.should_fail()) {
    // Report an honest stall: zero iterate, full residual, not converged.
    // Callers fall through to the direct banded solve exactly as they do
    // when the Krylov iteration genuinely stagnates near runaway.
    IterativeResult res;
    const IterTally tally{res};
    res.x.assign(n, 0.0);
    res.residual_norm = norm2(b);
    return res;
  }
  ColumnBlockJacobi* column = opts.preconditioner;
  if (column != nullptr && column->size() != n) {
    throw std::invalid_argument("solve_cg: preconditioner size mismatch");
  }
  const std::size_t max_iter =
      opts.max_iterations != 0 ? opts.max_iterations : 10 * n;
  const Vector inv_d =
      column != nullptr ? Vector() : jacobi_inverse_diagonal(a);
  const BackendOps& ops = backend();

  IterativeResult res;
  const IterTally tally{res};
  CgWorkspace local;
  CgWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  Vector& r = ws.r;
  init_iterate(a, b, opts, res.x, r);
  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    res.x.assign(n, 0.0);
    res.converged = true;
    return res;
  }
  res.residual_norm = norm2(r);
  if (res.residual_norm <= opts.tolerance * b_norm) {
    res.converged = true;
    return res;
  }

  // Every vector touch in the iteration is one fused backend pass:
  //   sell8_matvec      ap = A·p and p·ap          (1 pass over A, p, ap)
  //   cg_update         x += αp, r −= α·ap, ‖r‖²   (1 pass over p/ap/x/r)
  //   precond_dot       z = d∘r and r·z            (1 pass over r, z)
  //   search_dir_update p = z + βp                 (1 pass over z, p)
  // The scalar backend reproduces the unfused sequence bit for bit; the simd
  // backend's reductions, p·ap included, use its fixed 8-lane tree (see
  // backend.h). A column preconditioner replaces precond_dot with its
  // backend slab sweeps plus one backend dot for r·z.
  Vector& z = ws.z;
  z.resize(n);
  const auto precondition = [&] {
    return column != nullptr
               ? column->apply(r.data(), z.data())
               : ops.precond_dot(n, inv_d.data(), r.data(), z.data());
  };
  double rz = precondition();
  Vector& p = ws.p;
  p = z;
  Vector& ap = ws.ap;

  for (std::size_t it = 0; it < max_iter; ++it) {
    const double p_ap = a.multiply_dot(p, ap);
    if (p_ap <= 0.0) {
      // Matrix not SPD — bail to caller. pᵀAp = 0 proves it only for p ≠ 0.
      res.indefinite = p_ap < 0.0 || norm2(p) > 0.0;
      break;
    }
    const double alpha = rz / p_ap;
    res.iterations = it + 1;
    res.residual_norm = std::sqrt(
        ops.cg_update(n, alpha, p.data(), ap.data(), res.x.data(), r.data()));
    if (res.residual_norm <= opts.tolerance * b_norm) {
      res.converged = true;
      return res;
    }
    const double rz_new = precondition();
    const double beta = rz_new / rz;
    rz = rz_new;
    ops.search_dir_update(n, beta, z.data(), p.data());
  }
  res.residual_norm = norm2(r);
  return res;
}

}  // namespace oftec::la
