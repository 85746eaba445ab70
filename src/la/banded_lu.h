// Banded LU factorization with partial pivoting (LAPACK dgbtf2-style).
//
// Partial pivoting matters here: near thermal runaway the modified
// conductance matrix (G − A) loses diagonal dominance, and an unpivoted band
// factorization would be unstable exactly in the operating region the paper's
// Figure 6(a,b) explores.
//
// Usage: `BandedLu lu(std::move(matrix)); lu.solve_in_place(x);` — the
// constructor factors the band storage it is handed in place. The thermal
// solvers do not call it directly: they factor through la::BandedFactor
// (la/banded_factor.h), which tries Cholesky first and falls back to this
// LU when the matrix is not positive definite.
#pragma once

#include <cstddef>
#include <vector>

#include "la/banded_matrix.h"
#include "la/vector_ops.h"

namespace oftec::la {

class BandedLu {
 public:
  /// Empty factor; solving throws std::logic_error (a placeholder to assign
  /// a real factor into).
  BandedLu() = default;

  /// Factor `a` in place (copied, or moved in). Throws std::runtime_error if
  /// singular.
  explicit BandedLu(BandedMatrix a);

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solve in place: `x` holds b on entry and the solution on return.
  /// Bit-identical to solve() on the same right-hand side.
  void solve_in_place(Vector& x) const;

  /// False after default construction.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  [[nodiscard]] std::size_t size() const noexcept { return ab_.size(); }

  /// Smallest |pivot| encountered; a tiny value signals near-singularity
  /// (used by the thermal solver to flag approaching runaway).
  [[nodiscard]] double min_abs_pivot() const noexcept { return min_pivot_; }

 private:
  /// Factor ab_ in place (panel-blocked dgbtrf).
  void factor();

  BandedMatrix ab_;
  std::vector<std::size_t> ipiv_;
  double min_pivot_ = 0.0;
  bool valid_ = false;
};

/// One-shot convenience: solve A x = b by banded LU.
[[nodiscard]] Vector solve_banded(const BandedMatrix& a, const Vector& b);

}  // namespace oftec::la
