// Sliced-ELLPACK sparse matrix (SELL-8) with a triplet (COO) builder.
//
// The thermal network assembler emits (row, col, value) triplets; the builder
// coalesces duplicates and packs them into SELL-8 storage for the CG solver
// (SELL-C-σ with C = 8 and σ = 1, i.e. no row sorting; Kreutzer et al., SIAM
// J. Sci. Comput. 36(5), 2014), with each slice's slots keyed by diagonal
// offset:
//
//   * rows 8s … 8s+7 form slice s (the last slice may be short);
//   * slice s holds one slot per distinct offset c − r among its rows'
//     entries, in ascending offset order;
//   * a slot is one int32 offset, an 8-bit mask of its live lanes and eight
//     values, lane l (row 8s + l, column 8s + l + offset) at storage index
//     8·slot + l. A lane whose row stores no entry at that offset (and every
//     lane of a row past n) is dead: value 0, masked off by every kernel.
//
// A slot's lanes read eight consecutive x values, x[8s + offset …
// 8s + offset + 7], so the simd mat-vec loads x with one masked contiguous
// load per slot (a masked gather only where that window leaves [0, n)).
// Within a row a larger offset is a larger column, so ascending slots visit
// each row's entries in ascending column order: every row is still summed
// from +0.0 in that order, the bits of a row-by-row CSR loop. Lane l of
// every slice is a row ≡ l (mod 8), the lane the backends' 8-lane dot
// accumulator gives that row, so multiply_dot fuses the dot into the same
// pass. See la/backend.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
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

/// std::allocator with 64-byte alignment. A SparseMatrix's values sit in
/// it, so every slot's eight values fill one cache line and the mat-vec's
/// 8-lane load of them never splits across two, in every copy too.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlignment);
  }
  friend bool operator==(const CacheLineAllocator& /*a*/,
                         const CacheLineAllocator& /*b*/) noexcept {
    return true;
  }
};

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
  /// exceeds 2³¹ − 1, the reach of the int32 slot offsets.
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
  /// Stored values, 64-byte aligned (see CacheLineAllocator).
  using Values = std::vector<double, CacheLineAllocator<double>>;

  SparseMatrix() = default;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Stored entries, dead lanes excluded.
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
      const std::size_t lane = r % kC;
      for (std::size_t k = slice_start_[r / kC]; k < slice_start_[r / kC + 1];
           ++k) {
        if ((mask_[k] >> lane & 1u) == 0) continue;
        visit(r, static_cast<std::size_t>(static_cast<std::ptrdiff_t>(r) +
                                          offset_[k]),
              kC * k + lane);
      }
    }
  }

  /// Values in storage (slot) order, dead lanes included; index them with
  /// position().
  [[nodiscard]] const Values& values() const noexcept { return values_; }

  /// Mutable access to the stored values. The sparsity pattern is fixed;
  /// this is the hook incremental assemblers use to re-stamp a matrix whose
  /// structure is constant across operating points (diagonal-only updates).
  /// Dead lanes must stay 0.
  [[nodiscard]] Values& mutable_values() noexcept { return values_; }

 private:
  friend class TripletBuilder;

  /// Slice height: rows per slice, lanes per slot.
  static constexpr std::size_t kC = 8;

  /// The storage as the backend's mat-vec kernel reads it.
  [[nodiscard]] Sell8View view() const;

  std::size_t n_ = 0;
  std::size_t nnz_ = 0;
  /// Slice s's slots are [slice_start_[s], slice_start_[s + 1]); the back
  /// entry is the slot count. One entry per slice plus one.
  std::vector<std::size_t> slice_start_;
  /// Per slot: its diagonal offset c − r, ascending within a slice, and its
  /// live lanes (bit l: row 8s + l stores an entry at that offset).
  std::vector<std::int32_t> offset_;
  std::vector<std::uint8_t> mask_;
  /// Eight per slot, lane l at 8·slot + l; 0 in dead lanes.
  Values values_;
};

}  // namespace oftec::la
