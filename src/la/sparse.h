// Compressed-sparse-row matrix with a triplet (COO) builder.
//
// The thermal network assembler emits (row, col, value) triplets; the builder
// coalesces duplicates and produces a CSR matrix for the matvec-based
// iterative solver.
#pragma once

#include <cstddef>
#include <vector>

#include "la/vector_ops.h"

namespace oftec::la {

/// One (row, col, value) entry of a matrix under construction.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class CsrMatrix;

/// Accumulates triplets; duplicates are summed on build(), in the order they
/// were added: 0.0 + v₁ + v₂ + … from left to right. A caller that adds an
/// entry's terms in the same order as another assembler therefore gets the
/// same bits.
class TripletBuilder {
 public:
  explicit TripletBuilder(std::size_t n) : n_(n) {}

  /// Add `v` at (r, c). Throws std::out_of_range for bad indices.
  void add(std::size_t r, std::size_t c, double v);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Coalesce into a CSR matrix.
  [[nodiscard]] CsrMatrix build() const;

 private:
  std::size_t n_ = 0;
  std::vector<Triplet> triplets_;
};

/// Square CSR matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x.
  [[nodiscard]] Vector multiply(const Vector& x) const;

  /// Fused matvec + dot: y = A x (y is resized) and returns Σ x[r]·y[r],
  /// accumulated in ascending row order as each y[r] completes — the same
  /// sequential arithmetic as multiply() followed by a scalar dot, with one
  /// pass over x/y instead of two. Allocation-free once y has capacity.
  double multiply_dot(const Vector& x, Vector& y) const;

  /// Fused residual: r = b − A x (r is resized), each r[i] computed as
  /// b[i] − (A x)[i] — bit-identical to multiply() followed by
  /// axpy(−1, ax, r). Allocation-free once r has capacity. This is the
  /// warm-start residual evaluation of the iterative solvers.
  void residual_into(const Vector& b, const Vector& x, Vector& r) const;

  /// Diagonal entries (0 where absent) — Jacobi preconditioner input.
  [[nodiscard]] Vector diagonal() const;

  /// Entry (r, c), 0 if not stored.
  [[nodiscard]] double get(std::size_t r, std::size_t c) const;

  /// True if A is structurally and numerically symmetric within tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Mutable access to the stored values. The sparsity pattern is fixed;
  /// this is the hook incremental assemblers use to re-stamp a matrix whose
  /// structure is constant across operating points (diagonal-only updates).
  [[nodiscard]] std::vector<double>& mutable_values() noexcept {
    return values_;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace oftec::la
