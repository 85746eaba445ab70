#include "la/banded_lu.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "la/backend.h"

namespace oftec::la {

BandedLu::BandedLu(BandedMatrix a) : ab_(std::move(a)) { factor(); }

// Panel-blocked dgbtrf-style factorization (panels of kLuPanel columns).
//
// The seed walked one column at a time, sweeping every trailing band column
// per step — O(n·kv·kl) memory traffic that blows the cache at large
// bandwidths. The blocked version factors a panel with updates restricted to
// panel columns, then visits each deferred trailing column exactly once and
// applies the whole panel's worth of swaps and updates to it while it sits
// in L1 — traffic drops by ~the panel width.
//
// Bit-safety: per individual band entry the operations and their order are
// exactly the seed's, only interleaved differently across independent
// columns, so factorizations stay bit-identical to the seed under the scalar
// backend (goldens enforce this) and across backends for the element-wise
// parts. Two deferred-column flavors keep that true under pivoting:
//   - panel had no row interchanges (the common case for the thermal
//     matrices): the U-block rows resolve sequentially, and the below-panel
//     rows batch into one panel_update — per element the same multiply-then-
//     add sequence as the seed's per-step axpys, with the seed's exact-zero
//     skip (len 0) preserved so untouched signed zeros keep their bits.
//   - panel pivoted: the column replays the seed's interleaved swap/update
//     sequence verbatim (swaps do not commute past updates, so no batching).
// The pivot search stays scalar: its strict-greater tie-breaking picks the
// *first* maximal entry, an order-dependent choice no reduction may alter.
void BandedLu::factor() {
  const BackendOps& ops = backend();
  valid_ = false;
  const std::size_t n = ab_.size();
  const std::size_t kl = ab_.lower_bandwidth();
  const std::size_t ku = ab_.upper_bandwidth();
  const std::size_t kv = kl + ku;  // effective upper bandwidth after pivoting
  ipiv_.resize(n);
  min_pivot_ = std::numeric_limits<double>::infinity();

  constexpr std::size_t kLuPanel = 16;
  double alpha[kLuPanel];
  const double* xs[kLuPanel];
  std::size_t lens[kLuPanel];

  for (std::size_t j0 = 0; j0 < n; j0 += kLuPanel) {
    const std::size_t jP = std::min(n, j0 + kLuPanel);
    bool panel_pivoted = false;

    // --- Panel factorization: the seed's dgbtf2 step with row swaps and
    // --- trailing updates restricted to columns < jP.
    for (std::size_t j = j0; j < jP; ++j) {
      // Number of sub-diagonal entries in column j.
      const std::size_t km = std::min(kl, n - 1 - j);
      double* colj = ab_.col_ptr(j) + kv;  // colj[r] = A(j+r, j), r = 0..km

      // Partial pivoting within the column's band.
      std::size_t p = 0;
      double best = std::abs(colj[0]);
      for (std::size_t r = 1; r <= km; ++r) {
        const double v = std::abs(colj[r]);
        if (v > best) {
          best = v;
          p = r;
        }
      }
      ipiv_[j] = j + p;
      if (best == 0.0) {
        throw std::runtime_error("BandedLu: singular matrix");
      }
      min_pivot_ = std::min(min_pivot_, best);

      const std::size_t c_hi = std::min(jP - 1, j + kv);
      if (p != 0) {
        panel_pivoted = true;
        for (std::size_t c = j; c <= c_hi; ++c) {
          std::swap(ab_.storage(kv + j - c, c),
                    ab_.storage(kv + j + p - c, c));
        }
      }

      // Compute multipliers.
      const double inv_pivot = 1.0 / colj[0];
      ops.scale(km, inv_pivot, colj + 1);

      // In-panel trailing update: column c gains (-u_jc) · L(:,j).
      for (std::size_t c = j + 1; c <= c_hi; ++c) {
        const double u_jc = ab_.storage(kv + j - c, c);
        // Skipping exact zeros preserves the seed's signed-zero bits in the
        // untouched entries (adding -0.0 could flip a stored -0.0 to +0.0).
        if (u_jc == 0.0) continue;
        ops.axpy(km, -u_jc, colj + 1, ab_.col_ptr(c) + (kv + j - c) + 1);
      }
    }

    // --- Deferred trailing columns, each visited once.
    const std::size_t c_last = std::min(n - 1, jP - 1 + kv);
    for (std::size_t c = jP; c <= c_last; ++c) {
      const std::size_t j_lo = std::max(j0, c > kv ? c - kv : 0);
      double* colc = ab_.col_ptr(c);

      if (panel_pivoted) {
        // Replay the seed's interleaved sequence for this column.
        for (std::size_t j = j_lo; j < jP; ++j) {
          const std::size_t pj = ipiv_[j] - j;
          if (pj != 0) std::swap(colc[kv + j - c], colc[kv + j + pj - c]);
          const double u = colc[kv + j - c];
          if (u == 0.0) continue;
          ops.axpy(std::min(kl, n - 1 - j), -u, ab_.col_ptr(j) + kv + 1,
                   colc + (kv + j - c) + 1);
        }
        continue;
      }

      // No interchanges in this panel: resolve the U-block rows
      // sequentially (row q depends on updates from all j < q), then batch
      // the below-panel rows — every source starts at row jP — into one
      // panel_update.
      std::size_t np = 0;
      for (std::size_t q = j_lo; q < jP; ++q) {
        const double u = colc[kv + q - c];
        if (u == 0.0) continue;  // seed's exact-zero skip
        const std::size_t km = std::min(kl, n - 1 - q);
        const double* colq = ab_.col_ptr(q) + kv;
        const double nu = -u;
        const std::size_t r_hi = std::min(jP - 1, q + km);
        for (std::size_t r = q + 1; r <= r_hi; ++r) {
          colc[kv + r - c] += nu * colq[r - q];
        }
        if (q + km >= jP) {
          alpha[np] = nu;
          xs[np] = colq + (jP - q);
          lens[np] = q + km - jP + 1;
          ++np;
        }
      }
      if (np != 0) {
        ops.panel_update(np, alpha, xs, lens, colc + (kv + jP - c));
      }
    }
  }
  valid_ = true;
}

Vector BandedLu::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

void BandedLu::solve_in_place(Vector& x) const {
  if (!valid_) {
    throw std::logic_error("BandedLu::solve: no valid factorization");
  }
  const BackendOps& ops = backend();
  const std::size_t n = ab_.size();
  if (x.size() != n) {
    throw std::invalid_argument("BandedLu::solve: size mismatch");
  }
  const std::size_t kl = ab_.lower_bandwidth();
  const std::size_t ku = ab_.upper_bandwidth();
  const std::size_t kv = kl + ku;
  const std::size_t rows = ab_.storage_rows();

  // Apply P and L (forward substitution): x[j+1..j+km] -= xj · L(:,j),
  // contiguous on both sides.
  for (std::size_t j = 0; j < n; ++j) {
    if (ipiv_[j] != j) std::swap(x[j], x[ipiv_[j]]);
    const std::size_t km = std::min(kl, n - 1 - j);
    const double xj = x[j];
    if (xj == 0.0) continue;
    ops.axpy(km, -xj, ab_.col_ptr(j) + kv + 1, x.data() + j + 1);
  }
  // Back substitution with U (bandwidth kv). Walking row jj rightwards
  // moves one column over and one band-row up: stride rows-1 through the
  // storage, against contiguous x.
  for (std::size_t jj = n; jj-- > 0;) {
    const std::size_t c_hi = std::min(n - 1, jj + kv);
    const std::size_t len = c_hi - jj;
    const double acc =
        len == 0 ? x[jj]
                 : ops.nmsub_fold(x[jj], len, ab_.col_ptr(jj + 1) + kv - 1,
                                  static_cast<std::ptrdiff_t>(rows) - 1,
                                  x.data() + jj + 1, 1);
    x[jj] = acc / ab_.storage(kv, jj);
  }
}

Vector solve_banded(const BandedMatrix& a, const Vector& b) {
  return BandedLu(a).solve(b);
}

}  // namespace oftec::la
