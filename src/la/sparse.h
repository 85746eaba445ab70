// Sliced-ELLPACK sparse matrix (SELL-8) with a triplet (COO) builder.
//
// The thermal network assembler emits (row, col, value) triplets; the builder
// coalesces duplicates and packs them into SELL-8 storage for the CG solver
// (SELL-C-σ with C = 8 and σ = 1, i.e. no row sorting; Kreutzer et al., SIAM
// J. Sci. Comput. 36(5), 2014):
//
//   * rows 8s … 8s+7 form slice s (the last slice may be short);
//   * slot k of a slice holds each of its rows' k-th entry, in ascending
//     column order, at storage index slice_start[s] + 8k + lane;
//   * a slice is as wide as its longest row; lanes past a row's end (and the
//     rows past n in the last slice) are padding: value 0, column 0, and
//     masked off by every kernel.
//
// One slot is one 8-wide vector of values and int32 column indices, so the
// mat-vec runs lane-parallel under the simd backends (one gather and one
// masked add per slot) while each row is still summed from +0.0 in ascending
// column order — the bits of a row-by-row CSR loop. Lane l of every slice is
// a row ≡ l (mod 8), the lane the backends' 8-lane dot accumulator gives that
// row, so multiply_dot fuses the dot into the same pass. See la/backend.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/vector_ops.h"

namespace oftec::la {

/// One (row, col, value) entry of a matrix under construction.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class SparseMatrix;
struct Sell8View;

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

  /// Coalesce into SELL-8 storage. Throws std::length_error when size()
  /// exceeds 2³¹ − 1, the reach of the int32 column indices.
  [[nodiscard]] SparseMatrix build() const;

 private:
  std::size_t n_ = 0;
  std::vector<Triplet> triplets_;
};

/// Square sparse matrix in SELL-8 storage (see the file comment). The
/// pattern is fixed at build(); values() can be re-stamped in place.
class SparseMatrix {
 public:
  /// position() of an entry the pattern does not store.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparseMatrix() = default;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Stored entries, padding excluded.
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }

  /// y = A x.
  [[nodiscard]] Vector multiply(const Vector& x) const;

  /// Fused matvec + dot: y = A x (y is resized) and returns
  /// backend().dot(n, x, y) for that y, bit for bit — the scalar backend's
  /// sequential sum, the simd backends' 8-lane tree — accumulated in the
  /// same pass. Allocation-free once y has capacity.
  double multiply_dot(const Vector& x, Vector& y) const;

  /// Fused residual: r = b − A x (r is resized), each r[i] computed as
  /// b[i] − (A x)[i] — bit-identical to multiply() followed by
  /// axpy(−1, ax, r). Allocation-free once r has capacity. This is the
  /// warm-start residual evaluation of the iterative solvers.
  void residual_into(const Vector& b, const Vector& x, Vector& r) const;

  /// Diagonal entries (0 where absent) — Jacobi preconditioner input.
  [[nodiscard]] Vector diagonal() const;

  /// Entry (r, c), 0 if not stored. Throws std::out_of_range for bad
  /// indices.
  [[nodiscard]] double get(std::size_t r, std::size_t c) const;

  /// Storage index of entry (r, c) in values(), or npos when the pattern
  /// does not store it. Throws std::out_of_range for bad indices.
  [[nodiscard]] std::size_t position(std::size_t r, std::size_t c) const;

  /// True if A is structurally and numerically symmetric within tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  /// Call visit(row, col, storage index) for every stored entry, rows
  /// ascending and columns ascending within a row.
  template <class Visit>
  void for_each_entry(Visit&& visit) const {
    for (std::size_t r = 0; r < n_; ++r) {
      std::size_t p = slice_start_[r / kC] + r % kC;
      for (std::int32_t k = 0; k < row_len_[r]; ++k, p += kC) {
        visit(r, static_cast<std::size_t>(col_[p]), p);
      }
    }
  }

  /// Values in storage (slot) order, padding included; index them with
  /// position().
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  /// Mutable access to the stored values. The sparsity pattern is fixed;
  /// this is the hook incremental assemblers use to re-stamp a matrix whose
  /// structure is constant across operating points (diagonal-only updates).
  /// Padding lanes must stay 0.
  [[nodiscard]] std::vector<double>& mutable_values() noexcept {
    return values_;
  }

 private:
  friend class TripletBuilder;

  /// Slice height: rows per slice, lanes per slot.
  static constexpr std::size_t kC = 8;

  /// The storage as the backend's mat-vec kernel reads it.
  [[nodiscard]] Sell8View view() const;

  std::size_t n_ = 0;
  std::size_t nnz_ = 0;
  /// Storage index of slice s's first slot; the back entry is the storage
  /// size. One entry per slice plus one.
  std::vector<std::size_t> slice_start_;
  /// Entries per row, 8 per slice (0 for the rows past n).
  std::vector<std::int32_t> row_len_;
  std::vector<std::int32_t> col_;
  std::vector<double> values_;
};

}  // namespace oftec::la
