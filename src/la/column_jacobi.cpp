#include "la/column_jacobi.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "la/backend.h"

namespace oftec::la {

ColumnBlockSymbolic ColumnBlockSymbolic::analyze(
    const SparseMatrix& pattern, std::size_t cells,
    std::vector<std::size_t> slab_first) {
  const std::size_t n = pattern.size();
  std::vector<bool> in_slab(n, false);
  for (const std::size_t first : slab_first) {
    if (first > n || cells > n - first) {
      throw std::invalid_argument(
          "ColumnBlockSymbolic: slab runs past the matrix");
    }
    for (std::size_t c = 0; c < cells; ++c) {
      if (in_slab[first + c]) {
        throw std::invalid_argument("ColumnBlockSymbolic: slabs overlap");
      }
      in_slab[first + c] = true;
    }
  }

  ColumnBlockSymbolic s;
  s.n_ = n;
  s.nnz_ = pattern.nnz();
  s.cells_ = cells;
  const std::size_t m = slab_first.size();
  s.diag_pos_.resize(m * cells);
  s.below_pos_.resize(m > 0 ? (m - 1) * cells : 0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t c = 0; c < cells; ++c) {
      const std::size_t node = slab_first[k] + c;
      s.diag_pos_[k * cells + c] = pattern.position(node, node);
      if (k > 0) {
        s.below_pos_[(k - 1) * cells + c] =
            pattern.position(node, slab_first[k - 1] + c);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (in_slab[i]) continue;
    s.singletons_.push_back(i);
    s.singleton_diag_pos_.push_back(pattern.position(i, i));
  }
  s.first_ = std::move(slab_first);
  return s;
}

bool ColumnBlockJacobi::factor(const ColumnBlockSymbolic& symbolic,
                               const SparseMatrix& a) {
  if (a.size() != symbolic.n_ || a.nnz() != symbolic.nnz_) {
    throw std::invalid_argument(
        "ColumnBlockJacobi::factor: matrix does not match the pattern");
  }
  symbolic_ = nullptr;
  const std::vector<double>& values = a.values();
  const auto entry = [&values](std::size_t pos) {
    return pos == SparseMatrix::npos ? 0.0 : values[pos];
  };
  const std::size_t cells = symbolic.cells_;
  const std::size_t m = symbolic.slabs();
  inv_pivot_.resize(m * cells);
  multiplier_.resize(symbolic.below_pos_.size());

  // LDLᵀ of each column's tridiagonal block (the Thomas algorithm), one slab
  // at a time: with e the coupling to the slab below,
  //   l_k = e_k / pivot_{k−1},   pivot_k = d_k − l_k·e_k.
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t c = 0; c < cells; ++c) {
      double pivot = entry(symbolic.diag_pos_[k * cells + c]);
      if (k > 0) {
        const std::size_t below = (k - 1) * cells + c;
        const double e = entry(symbolic.below_pos_[below]);
        const double l = e * inv_pivot_[below];
        multiplier_[below] = l;
        pivot -= l * e;
      }
      if (!(pivot > 0.0)) return false;
      inv_pivot_[k * cells + c] = 1.0 / pivot;
    }
  }

  const std::size_t singles = symbolic.singletons_.size();
  inv_singleton_.resize(singles);
  for (std::size_t j = 0; j < singles; ++j) {
    const double d = entry(symbolic.singleton_diag_pos_[j]);
    if (!(d > 0.0)) return false;
    inv_singleton_[j] = 1.0 / d;
  }
  symbolic_ = &symbolic;
  return true;
}

double ColumnBlockJacobi::apply(const double* r, double* z) const {
  const ColumnBlockSymbolic& s = *symbolic_;
  const std::size_t cells = s.cells_;
  const std::size_t m = s.slabs();
  const std::vector<std::size_t>& first = s.first_;
  const BackendOps& ops = backend();

  // Forward, bottom slab up: L·y = r (y is written into z), one backend
  // sweep per slab: z_k = r_k − l∘z_{k−1}.
  for (std::size_t k = 0; k < m; ++k) {
    const double* rk = r + first[k];
    double* zk = z + first[k];
    if (k == 0) {
      std::copy(rk, rk + cells, zk);
      continue;
    }
    ops.column_sweep_fwd(cells, rk, multiplier_.data() + (k - 1) * cells,
                         z + first[k - 1], zk);
  }
  // Backward, top slab down: D·Lᵀ·z = y, i.e. z_k = z_k∘d⁻¹ − l∘z_{k+1}.
  for (std::size_t k = m; k-- > 0;) {
    double* __restrict zk = z + first[k];
    const double* __restrict inv = inv_pivot_.data() + k * cells;
    if (k + 1 == m) {
      for (std::size_t c = 0; c < cells; ++c) zk[c] *= inv[c];
      continue;
    }
    ops.column_sweep_bwd(cells, inv, multiplier_.data() + k * cells,
                         z + first[k + 1], zk);
  }
  for (std::size_t j = 0; j < s.singletons_.size(); ++j) {
    const std::size_t i = s.singletons_[j];
    z[i] = r[i] * inv_singleton_[j];
  }
  return ops.dot(s.n_, r, z);
}

}  // namespace oftec::la
