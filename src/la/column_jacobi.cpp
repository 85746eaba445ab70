#include "la/column_jacobi.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "la/backend.h"

namespace oftec::la {

namespace {

/// 1 + the largest id; throws unless every id below it is used.
std::size_t id_count(const std::vector<std::size_t>& ids) {
  const std::size_t count = 1 + *std::max_element(ids.begin(), ids.end());
  std::vector<bool> used(count, false);
  for (const std::size_t id : ids) used[id] = true;
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    throw std::invalid_argument("ColumnBlockSymbolic: empty coarse aggregate");
  }
  return count;
}

/// init − Σ_{k<count} a[k]·b[k], subtracted in ascending k.
double minus_dot(double init, const double* a, const double* b,
                 std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) init -= a[k] * b[k];
  return init;
}

}  // namespace

ColumnBlockSymbolic ColumnBlockSymbolic::analyze(
    const SparseMatrix& pattern, std::size_t cells,
    std::vector<std::size_t> slab_first, CoarseMap coarse) {
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
  if (coarse.cell_aggregate.empty() && coarse.slab_group.empty()) return s;
  if (cells == 0 || m == 0 || coarse.cell_aggregate.size() != cells ||
      coarse.slab_group.size() != m) {
    throw std::invalid_argument(
        "ColumnBlockSymbolic: coarse map does not match the slabs");
  }
  s.groups_ = id_count(coarse.slab_group);
  s.fine_ = id_count(coarse.cell_aggregate) * s.groups_;
  s.slab_group_ = std::move(coarse.slab_group);
  s.cell_coarse_ = std::move(coarse.cell_aggregate);
  for (std::size_t& a : s.cell_coarse_) a *= s.groups_;
  std::vector<std::size_t> node_coarse(n);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t c = 0; c < cells; ++c) {
      node_coarse[s.first_[k] + c] = s.cell_coarse_[c] + s.slab_group_[k];
    }
  }
  for (std::size_t j = 0; j < s.singletons_.size(); ++j) {
    node_coarse[s.singletons_[j]] = s.fine_ + j;
  }
  // Visit every stored entry as (coarse row, coarse column, storage index).
  const auto for_each_entry = [&](auto&& visit) {
    pattern.for_each_entry([&](std::size_t r, std::size_t c, std::size_t p) {
      visit(node_coarse[r], node_coarse[c], p);
    });
  };
  // Row i of E's profile starts at the lowest column it couples to.
  const std::size_t nc = s.coarse_size();
  s.profile_first_.resize(nc);
  std::iota(s.profile_first_.begin(), s.profile_first_.end(), 0);
  for_each_entry([&](std::size_t i, std::size_t j, std::size_t) {
    s.profile_first_[i] = std::min(s.profile_first_[i], j);
  });
  s.profile_start_.assign(nc + 1, 0);
  for (std::size_t i = 0; i < nc; ++i) {
    s.profile_start_[i + 1] = s.profile_start_[i] + i - s.profile_first_[i] + 1;
  }
  // E(i, j), j ≤ i, sums the A(r, c) with r in i, c in j (counting sort).
  const auto slot = [&s](std::size_t i, std::size_t j) {
    return s.profile_start_[i] + (j - s.profile_first_[i]);
  };
  s.sum_start_.assign(s.profile_start_[nc] + 1, 0);
  for_each_entry([&](std::size_t i, std::size_t j, std::size_t) {
    if (j <= i) ++s.sum_start_[slot(i, j) + 1];
  });
  std::partial_sum(s.sum_start_.begin(), s.sum_start_.end(),
                   s.sum_start_.begin());
  s.sum_pos_.resize(s.sum_start_.back());
  std::vector<std::size_t> next(s.sum_start_.begin(), s.sum_start_.end() - 1);
  for_each_entry([&](std::size_t i, std::size_t j, std::size_t p) {
    if (j <= i) s.sum_pos_[next[slot(i, j)]++] = p;
  });
  return s;
}

bool ColumnBlockJacobi::factor(const ColumnBlockSymbolic& symbolic,
                               const SparseMatrix& a) {
  if (a.size() != symbolic.n_ || a.nnz() != symbolic.nnz_) {
    throw std::invalid_argument(
        "ColumnBlockJacobi::factor: matrix does not match the pattern");
  }
  symbolic_ = nullptr;
  const SparseMatrix::Values& values = a.values();
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

  // E = ZᵀAZ, then its Cholesky factor row by row in the profile (which
  // holds the fill): L(i, j) = (E(i, j) − Σ_{k<j} L(i, k)·L(j, k)) / L(j, j).
  const std::size_t nc = symbolic.coarse_size();
  if (nc > 0) {
    const std::size_t* first = symbolic.profile_first_.data();
    const std::size_t* start = symbolic.profile_start_.data();
    const std::vector<std::size_t>& sum_start = symbolic.sum_start_;
    coarse_.resize(start[nc]);
    coarse_inv_diag_.resize(nc);
    double* f = coarse_.data();
    for (std::size_t e = 0; e < start[nc]; ++e) {
      double acc = 0.0;
      for (std::size_t q = sum_start[e]; q < sum_start[e + 1]; ++q) {
        acc += values[symbolic.sum_pos_[q]];
      }
      f[e] = acc;
    }
    for (std::size_t i = 0; i < nc; ++i) {
      double* li = f + (start[i] - first[i]);  // li[j] = L(i, j)
      for (std::size_t j = first[i]; j < i; ++j) {
        const std::size_t k = std::max(first[i], first[j]);
        li[j] = minus_dot(li[j], li + k, f + (start[j] - first[j]) + k, j - k) *
                coarse_inv_diag_[j];
      }
      const double pivot =
          minus_dot(li[i], f + start[i], f + start[i], i - first[i]);
      if (!(pivot > 0.0)) return false;
      li[i] = std::sqrt(pivot);
      coarse_inv_diag_[i] = 1.0 / li[i];
    }
    coarse_work_.resize(nc);
    group_work_.resize(symbolic.groups_ * cells);
  }
  symbolic_ = &symbolic;
  return true;
}

double ColumnBlockJacobi::apply(const double* r, double* z) {
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
  if (s.coarse_size() > 0) add_coarse_correction(r, z);
  return ops.dot(s.n_, r, z);
}

void ColumnBlockJacobi::add_coarse_correction(const double* r, double* z) {
  const ColumnBlockSymbolic& s = *symbolic_;
  const std::size_t cells = s.cells_;
  const std::size_t nc = s.coarse_size();
  const std::size_t fine = s.fine_;
  const std::size_t* cell_coarse = s.cell_coarse_.data();
  const BackendOps& ops = backend();
  double* __restrict y = coarse_work_.data();
  double* __restrict buf = group_work_.data();

  // Restrict, y = Zᵀr: each group's slabs summed cell by cell (an axpy by
  // 1.0 adds exactly, element-wise on every backend), then the cells.
  std::fill(buf, buf + s.groups_ * cells, 0.0);
  for (std::size_t k = 0; k < s.slabs(); ++k) {
    ops.axpy(cells, 1.0, r + s.first_[k], buf + s.slab_group_[k] * cells);
  }
  std::fill(y, y + fine, 0.0);
  for (std::size_t g = 0; g < s.groups_; ++g) {
    const double* wg = buf + g * cells;
    for (std::size_t c = 0; c < cells; ++c) y[cell_coarse[c] + g] += wg[c];
  }
  for (std::size_t t = fine; t < nc; ++t) y[t] = r[s.singletons_[t - fine]];

  // E·v = y in place: L·u = y by row dots, then Lᵀ·v = u by row axpys.
  const double* f = coarse_.data();
  const std::size_t* first = s.profile_first_.data();
  const std::size_t* start = s.profile_start_.data();
  const double* inv = coarse_inv_diag_.data();
  for (std::size_t i = 0; i < nc; ++i) {
    y[i] = minus_dot(y[i], f + start[i], y + first[i], i - first[i]) * inv[i];
  }
  for (std::size_t i = nc; i-- > 0;) {
    const double* __restrict li = f + (start[i] - first[i]);
    const double v = y[i] *= inv[i];
    for (std::size_t j = first[i]; j < i; ++j) y[j] -= li[j] * v;
  }

  // Prolong, z += Z·v.
  for (std::size_t g = 0; g < s.groups_; ++g) {
    double* wg = buf + g * cells;
    for (std::size_t c = 0; c < cells; ++c) wg[c] = y[cell_coarse[c] + g];
  }
  for (std::size_t k = 0; k < s.slabs(); ++k) {
    ops.axpy(cells, 1.0, buf + s.slab_group_[k] * cells, z + s.first_[k]);
  }
  for (std::size_t t = fine; t < nc; ++t) z[s.singletons_[t - fine]] += y[t];
}

}  // namespace oftec::la
