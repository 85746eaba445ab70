// Shared panel-blocked core of the banded Cholesky factorizations.
//
// BandedCholeskyNumeric and BandedFactor's Cholesky path factor the same
// way; this header holds the one implementation so the "refactorize ≡ fresh
// construction, bit for bit" property is true by construction.
//
// Storage: the factor is column-major banded — column j occupies
// factor[j*(k+1) .. j*(k+1)+k], diagonal first, i.e. L(i,j) lives at
// factor[j*(k+1) + (i-j)] for 0 ≤ i−j ≤ k. Each column is contiguous in
// memory, which is what lets the panel kernels stream whole columns.
//
// Algorithm: left-looking by destination column. Column j receives, from
// every finalized source column m ∈ [j−k, j),
//     colj[r−j] += (−L(j,m)) · L(r,m)        for r = j .. min(n−1, m+k),
// applied in ascending m, and is then finalized (√diag, divide the
// sub-diagonal). Per destination *element* this is exactly the seed's
// sequential fold  acc −= L(i,m)·L(j,m)  in the same m order — (−a)·b is
// exactly −(a·b), x+(−p) ≡ x−p, and multiplication commutes — so the scalar
// backend reproduces the seed factor bit for bit. Every operation is
// element-wise (panel_update, axpy, divide), so the simd backends produce
// the *same* bits as scalar: the factorization is backend-invariant.
//
// Blocking: destination panels of kDestPanel columns; external sources
// stream through panel_update in blocks of kSrcBlock columns (block outer,
// destination column inner, so a ~(k·kSrcBlock)-double source block stays in
// cache across the whole panel). Sources inside the panel are applied
// per-column during finalization (at most kDestPanel−1 of them).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>

#include "la/backend.h"
#include "la/banded_matrix.h"

namespace oftec::la::detail {

inline constexpr std::size_t kCholDestPanel = 16;
inline constexpr std::size_t kCholSrcBlock = 32;

/// Factor an SPD band matrix in place. `factor` is column-major banded
/// (layout above) and holds the lower band of A on entry, L on return.
/// Returns min_j L(j,j), or nullopt on a non-positive (or NaN) pivot — the
/// matrix is not positive definite and `factor` is left partly overwritten.
inline std::optional<double> banded_cholesky_factor_inplace(
    std::size_t n, std::size_t k, double* factor, const BackendOps& ops) {
  const std::size_t stride = k + 1;
  double min_diag = std::numeric_limits<double>::infinity();

  const double* xs[kCholSrcBlock];
  double alpha[kCholSrcBlock];
  std::size_t lens[kCholSrcBlock];

  for (std::size_t j0 = 0; j0 < n; j0 += kCholDestPanel) {
    const std::size_t j1 = std::min(n, j0 + kCholDestPanel);

    // External sources m < j0, in ascending blocks. Block outer / dest
    // inner keeps the source block hot across the panel; per destination
    // element the sources still apply in ascending m.
    const std::size_t m_lo0 = j0 > k ? j0 - k : 0;
    for (std::size_t mb = m_lo0; mb < j0; mb += kCholSrcBlock) {
      const std::size_t p = std::min(j0, mb + kCholSrcBlock) - mb;
      for (std::size_t j = j0; j < j1; ++j) {
        bool any = false;
        for (std::size_t s = 0; s < p; ++s) {
          const std::size_t m = mb + s;
          const double* colm = factor + m * stride;
          if (m + k < j) {  // column m's band ends above row j
            alpha[s] = 0.0;
            xs[s] = colm;
            lens[s] = 0;
            continue;
          }
          alpha[s] = -colm[j - m];
          xs[s] = colm + (j - m);
          lens[s] = std::min(n - 1, m + k) - j + 1;
          any = true;
        }
        if (any) ops.panel_update(p, alpha, xs, lens, factor + j * stride);
      }
    }

    // Finalize the panel left-looking: apply the (≤ kCholDestPanel−1)
    // in-panel sources, then pivot.
    for (std::size_t j = j0; j < j1; ++j) {
      double* colj = factor + j * stride;
      const std::size_t m_lo = j > k ? j - k : 0;
      for (std::size_t m = std::max(m_lo, j0); m < j; ++m) {
        const double* colm = factor + m * stride;
        ops.axpy(std::min(n - 1, m + k) - j + 1, -colm[j - m], colm + (j - m),
                 colj);
      }
      const double diag = colj[0];
      if (!(diag > 0.0)) return std::nullopt;
      const double ljj = std::sqrt(diag);
      colj[0] = ljj;
      min_diag = std::min(min_diag, ljj);
      const std::size_t sub = std::min(k, n - 1 - j);
      for (std::size_t r = 1; r <= sub; ++r) colj[r] /= ljj;
    }
  }
  return min_diag;
}

/// Copy the lower band of `a` (kl == ku == k) into column-major banded
/// storage, zero-filled beyond the matrix edge. In band storage a column's
/// diagonal and k sub-diagonal entries are already contiguous, so each
/// column is one straight copy.
inline void fill_lower_band(const BandedMatrix& a, std::size_t k,
                            double* factor) {
  const std::size_t n = a.size();
  const std::size_t diag_row = a.lower_bandwidth() + a.upper_bandwidth();
  for (std::size_t j = 0; j < n; ++j) {
    double* colj = factor + j * (k + 1);
    const std::size_t rows = std::min(k, n - 1 - j) + 1;
    std::copy_n(a.col_ptr(j) + diag_row, rows, colj);
    std::fill(colj + rows, colj + k + 1, 0.0);
  }
}

}  // namespace oftec::la::detail
