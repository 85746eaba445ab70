// Banded Cholesky split into symbolic analysis and numeric refactorization.
//
// Every steady-state thermal system of one package stack shares the same
// sparsity structure: the operating point (ω, I_TEC, leakage linearization)
// only moves diagonal entries, never the band pattern. Splitting the
// factorization lets the solve engine pay the structural work (band layout,
// workspace allocation) once per stack and then refactorize per operating
// point into the same storage — the classic symbolic/numeric split of sparse
// direct solvers, specialized to the band case where the "symbolic" phase
// reduces to the filled lower band.
//
// BandedCholeskyNumeric::refactorize performs the identical arithmetic, in
// the identical order, as la::BandedFactor's Cholesky path — the property
// tests assert exact agreement.
#pragma once

#include <cstddef>
#include <memory>

#include "la/banded_matrix.h"
#include "la/vector_ops.h"

namespace oftec::la {

/// Structure-only analysis of an SPD band matrix family: dimension, band
/// width, and the factor storage layout. Immutable; share one instance
/// (via shared_ptr) across all numeric factors of the same package stack.
class BandedCholeskySymbolic {
 public:
  /// Analyze an n×n SPD family with `bandwidth` sub-diagonals (kl == ku).
  BandedCholeskySymbolic(std::size_t n, std::size_t bandwidth);

  /// Convenience: read the structure off a concrete matrix. Throws
  /// std::invalid_argument if kl != ku.
  static BandedCholeskySymbolic analyze(const BandedMatrix& a);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t bandwidth() const noexcept { return k_; }
  /// Doubles needed to hold the factor L: (k+1)·n.
  [[nodiscard]] std::size_t factor_storage() const noexcept {
    return (k_ + 1) * n_;
  }
  /// True if `a` has this structure (size and symmetric bandwidths).
  [[nodiscard]] bool matches(const BandedMatrix& a) const noexcept;

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
};

/// Numeric factor bound to one symbolic analysis. refactorize() reuses the
/// workspace allocated at construction; solve() is const and therefore safe
/// to call concurrently from multiple threads once factorized.
class BandedCholeskyNumeric {
 public:
  explicit BandedCholeskyNumeric(
      std::shared_ptr<const BandedCholeskySymbolic> symbolic);

  /// Factor `a` (lower band read; must match the symbolic structure).
  /// Throws std::invalid_argument on a structure mismatch and
  /// std::runtime_error when the matrix is not positive definite; in the
  /// latter case the factor is left invalid (factorized() == false).
  void refactorize(const BandedMatrix& a);

  [[nodiscard]] bool factorized() const noexcept { return factorized_; }

  /// Solve A x = b with the current factor. Throws std::logic_error when no
  /// valid factor is held.
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] const BandedCholeskySymbolic& symbolic() const noexcept {
    return *symbolic_;
  }
  /// Smallest diagonal entry of L — a conditioning indicator.
  [[nodiscard]] double min_diagonal() const noexcept { return min_diag_; }

 private:
  /// Column-major banded factor (la/cholesky_core.h): L(i,j) at
  /// factor_[j*(k+1) + (i-j)].
  [[nodiscard]] double l(std::size_t i, std::size_t j) const noexcept {
    return factor_[j * (symbolic_->bandwidth() + 1) + (i - j)];
  }

  std::shared_ptr<const BandedCholeskySymbolic> symbolic_;
  Vector factor_;
  bool factorized_ = false;
  double min_diag_ = 0.0;
};

}  // namespace oftec::la
