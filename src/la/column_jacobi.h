// Z-column block-Jacobi preconditioner for layer-major stacked grids.
//
// A layered grid numbered slab by slab — m slabs of `cells` consecutive
// nodes each, cell c of slab k at node first[k] + c — couples every node to
// the same cell in the slabs directly above and below. In the thermal stack
// those vertical couplings dominate: the thin TIM and TEC slabs conduct far
// better through their thickness than across it, and the TEC absorb/reject
// interface slabs have no lateral edges at all. Diagonal Jacobi sees none of
// that. This preconditioner keeps it: M is the block diagonal of A made of
// one m×m tridiagonal block per (x, y) column — the column's diagonal
// entries and its vertical couplings (k, c)–(k+1, c) — plus a 1×1 block for
// every node outside the slabs (the lumped ring nodes, "singletons").
//
// Column blocks leave lateral spreading (the copper spreader and sink) to
// the Krylov iteration. An optional additive Galerkin coarse level takes it
// over: M⁻¹ = M_col⁻¹ + Z·E⁻¹·Zᵀ with E = ZᵀAZ, Z piecewise constant. A
// CoarseMap gives every cell a lateral aggregate and every slab a group;
// each (aggregate, group) pair is one coarse unknown, and so is each
// singleton. Since yᵀEy = (Zy)ᵀA(Zy), a non-positive pivot of E's Cholesky
// factor proves A is not SPD, as a column pivot does. E is factored in its
// row profile, which holds the fill; numbering aggregates row by row over
// a lateral grid keeps all but the singletons' rows short.
//
// A's diagonal only reaches E's diagonal, and it is all that moves between
// the matrices one symbolic serves (the thermal engine stamps every
// operating-point term there). So analyze() sums the rest of E once and
// factor() adds only the node diagonals: every matrix factored against a
// symbolic must have the off-diagonal values of the pattern analyze() read.
//
// The preconditioner is split like the banded Cholesky:
//   ColumnBlockSymbolic — where each column's entries live in a fixed
//                         sparse pattern (their SparseMatrix::position()).
//                         Computed once per pattern; immutable and
//                         shareable across threads.
//   ColumnBlockJacobi   — the numeric LDLᵀ factor of every column block
//                         (the Thomas algorithm, O(n)) and the Cholesky
//                         factor of E, refactored from the matrix values
//                         whenever they change, plus the coarse scratch.
//
// Determinism: factor() and the z = M⁻¹r sweeps of apply() run one slab at
// a time across all cells, so every inner loop is contiguous and
// element-wise. The forward and backward sweeps are the backend's
// column_sweep_fwd / column_sweep_bwd kernels (vectorized under simd), which
// produce the same bits under every kernel backend. The r·z that apply()
// returns goes through the active backend's dot, so it is exactly what
// backend().dot would return for the produced z (the simd backends' fixed
// 8-lane tree; see la/backend.h). With the coarse level z keeps its bits
// too: its adds are exact axpys by 1.0, its sums and solves fixed-order
// scalar code.
#pragma once

#include <cstddef>
#include <vector>

#include "la/sparse.h"

namespace oftec::la {

/// The aggregation of the optional coarse level. Empty: no coarse level.
struct CoarseMap {
  std::vector<std::size_t> cell_aggregate;  ///< per cell, ids 0 … A−1
  std::vector<std::size_t> slab_group;      ///< per slab, ids 0 … G−1
};

class ColumnBlockSymbolic {
 public:
  /// Locate, in `pattern`'s sparsity structure, the diagonal entry of every
  /// slab node and the coupling of every slab node to the same cell in the
  /// slab below. `slab_first[k]` is the first node of slab k, listed bottom
  /// to top along the column; every slab holds `cells` consecutive nodes.
  /// Nodes outside every slab become singletons. A non-empty `coarse` adds
  /// the coarse level: unknown a·G + g is aggregate a of group g, singleton
  /// j is unknown A·G + j; only then are `pattern`'s values read, to sum
  /// E's static part. Throws std::invalid_argument when a slab runs past the
  /// matrix, two slabs overlap, or `coarse` misses a cell or slab or leaves
  /// an id unused. A coupling absent from the pattern factors as 0.
  [[nodiscard]] static ColumnBlockSymbolic analyze(
      const SparseMatrix& pattern, std::size_t cells,
      std::vector<std::size_t> slab_first, CoarseMap coarse = {});

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t slabs() const noexcept { return first_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& singletons() const noexcept {
    return singletons_;
  }
  /// Coarse unknowns: aggregates × groups + singletons (0 without them).
  [[nodiscard]] std::size_t coarse_size() const noexcept {
    return fine_ + (fine_ > 0 ? singletons_.size() : 0);
  }

 private:
  friend class ColumnBlockJacobi;

  std::size_t n_ = 0;
  std::size_t nnz_ = 0;
  std::size_t cells_ = 0;
  std::vector<std::size_t> first_;
  /// Storage index of A(first[k]+c, first[k]+c), at k·cells + c.
  std::vector<std::size_t> diag_pos_;
  /// Storage index of A(first[k]+c, first[k−1]+c) for k ≥ 1, at
  /// (k−1)·cells + c; SparseMatrix::npos where the pattern has no such entry.
  std::vector<std::size_t> below_pos_;
  std::vector<std::size_t> singletons_;
  std::vector<std::size_t> singleton_diag_pos_;

  // Coarse level (all zero or empty without one).
  std::size_t groups_ = 0;
  std::size_t fine_ = 0;  ///< aggregate unknowns: aggregates × groups
  std::vector<std::size_t> slab_group_;
  /// Cell c of a group-g slab restricts to unknown cell_coarse_[c] + g.
  std::vector<std::size_t> cell_coarse_;
  /// E's row profile: row i holds columns profile_first_[i] … i at
  /// profile_start_[i] …, diagonal last. The first columns never decrease
  /// over the aggregate rows (unknowns below fine_).
  std::vector<std::size_t> profile_first_;
  std::vector<std::size_t> profile_start_;
  /// E's static part in its profile: everything but the node diagonals.
  std::vector<double> static_;

  /// y[0 … fine_) = each aggregate's sum, cells ascending, of its group's
  /// vector in `group_cells` (one cell vector per group, group-major).
  void sum_aggregates(const double* group_cells, double* y) const;
};

class ColumnBlockJacobi {
 public:
  /// Factor every column block of `a`, whose sparsity pattern must be the one
  /// `symbolic` was analyzed on, and with a coarse level assemble E = ZᵀAZ
  /// and Cholesky-factor it; `a`'s off-diagonal values must then be the
  /// analyzed pattern's (only its diagonal is read into E). Returns false on
  /// a non-positive (or NaN) pivot or singleton diagonal — a principal
  /// submatrix that is not SPD — or a non-positive coarse pivot; either
  /// proves `a` is not SPD. The factor is then unusable until the next
  /// successful factor(). Reuses its storage across calls. The symbolic must
  /// outlive every apply() that follows.
  [[nodiscard]] bool factor(const ColumnBlockSymbolic& symbolic,
                            const SparseMatrix& a);

  /// z = M⁻¹r over the last successful factor(); returns r·z computed by
  /// the active backend's dot. r and z hold size() doubles and must not
  /// overlap. Allocation-free: the coarse level works in this object's
  /// scratch, which is why apply() is not const — concurrent solves need
  /// one object each.
  double apply(const double* r, double* z);

  [[nodiscard]] std::size_t size() const noexcept {
    return symbolic_ != nullptr ? symbolic_->size() : 0;
  }

 private:
  /// z += Z·E⁻¹·Zᵀr.
  void add_coarse_correction(const double* r, double* z);

  const ColumnBlockSymbolic* symbolic_ = nullptr;
  std::vector<double> inv_pivot_;      ///< 1/pivot at k·cells + c
  std::vector<double> multiplier_;     ///< L(k, k−1) at (k−1)·cells + c
  std::vector<double> inv_singleton_;  ///< 1/diag per singleton
  std::vector<double> coarse_;  ///< E, then L of E = L·Lᵀ, in its profile
  std::vector<double> coarse_inv_diag_;  ///< 1/L(i, i)
  std::vector<double> coarse_work_;  ///< Zᵀr, then E⁻¹·Zᵀr
  /// One cell vector per group: slab diagonal sums in factor(), slab sums
  /// of r and then Z·v in apply().
  std::vector<double> group_work_;
};

}  // namespace oftec::la
