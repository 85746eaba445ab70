// Direct factor of a symmetric band matrix: Cholesky first, pivoted LU when
// Cholesky meets a non-positive pivot.
//
// Every direct solve in the thermal stack factors one matrix family: the
// conduction matrix G plus diagonal stamps (sink conductance, the leakage
// tangent slope, the TEC's ±α·I, and C/dt in transient steps). G is
// symmetric, so the whole family is, and away from thermal runaway it is
// positive definite — Cholesky then does a quarter of the band LU's flops
// (pivoting widens LU's upper band to 2k) in a third of its storage. Near
// runaway the leakage slope and the reject-side Peltier term can make the
// matrix indefinite; the pivoted LU still solves any nonsingular member.
// This type is the one place that choice is made: the
// steady SolveEngine's factor cache, the TransientStepper's banded fallback
// and the transient oracle in tests/ all factor through it, so a fallback
// step is the oracle's step, bit for bit, on either path.
//
// Only the lower band is read on the Cholesky path, so the matrix must be
// symmetric (the LU fallback reads the full band).
#pragma once

#include <cstddef>

#include "la/banded_lu.h"
#include "la/banded_matrix.h"
#include "la/vector_ops.h"

namespace oftec::la {

class BandedFactor {
 public:
  enum class Kind { kNone, kCholesky, kLu };

  /// Empty factor; solving throws std::logic_error until a refactorization
  /// succeeds.
  BandedFactor() = default;

  /// Factor `a`; see refactorize().
  explicit BandedFactor(const BandedMatrix& a) { refactorize(a); }

  /// Factor the symmetric matrix `a` (kl == ku, else std::invalid_argument):
  /// Cholesky of its lower band, staged in storage that is reused when the
  /// shape is unchanged (a warm Cholesky refactorization allocates
  /// nothing), else the pivoted LU of the full band. Throws
  /// std::runtime_error when `a` is singular; the factor is then invalid
  /// until the next successful refactorization.
  void refactorize(const BandedMatrix& a);

  /// Solve in place: `x` holds b on entry and the solution on return.
  /// Const, so safe to call concurrently once factored.
  void solve_in_place(Vector& x) const;
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::kNone; }
  /// Which factorization the last successful refactorization produced.
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  Kind kind_ = Kind::kNone;
  Vector lower_;  ///< staged lower band, then L (Cholesky)
  BandedLu lu_;   ///< held only while kind_ == kLu
};

}  // namespace oftec::la
