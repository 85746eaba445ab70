#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "la/backend.h"

namespace oftec::la {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("TripletBuilder::add: index out of range");
  }
  triplets_.push_back({r, c, v});
}

SparseMatrix TripletBuilder::build() const {
  if (n_ > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::length_error(
        "TripletBuilder::build: more than 2^31 - 1 rows for int32 columns");
  }
  // Sort by (row, col), stably, so duplicates stay in insertion order and
  // each sum below runs in the order the caller added its terms: a counting
  // sort by row, then an insertion sort by column within each row. Both are
  // stable, so this is std::stable_sort's permutation.
  std::vector<std::size_t> row_start(n_ + 1, 0);
  for (const Triplet& t : triplets_) ++row_start[t.row + 1];
  std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
  std::vector<Triplet> sorted(triplets_.size());
  std::vector<std::size_t> next(row_start.begin(), row_start.end() - 1);
  for (const Triplet& t : triplets_) sorted[next[t.row]++] = t;
  for (std::size_t r = 0; r < n_; ++r) {
    const auto first = sorted.begin() + std::ptrdiff_t(row_start[r]);
    const auto last = sorted.begin() + std::ptrdiff_t(row_start[r + 1]);
    for (auto it = first; it != last; ++it) {
      const Triplet t = *it;
      auto hole = it;
      for (; hole != first && t.col < hole[-1].col; --hole) *hole = hole[-1];
      *hole = t;
    }
  }

  constexpr std::size_t kC = SparseMatrix::kC;
  SparseMatrix a;
  a.n_ = n_;
  const std::size_t slices = (n_ + kC - 1) / kC;
  a.row_len_.assign(slices * kC, 0);
  // Coalesce duplicates in place: sorted[0, m) ends up holding each stored
  // entry once, rows ascending and columns ascending within a row.
  std::size_t m = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    const std::size_t r = sorted[i].row;
    const std::size_t c = sorted[i].col;
    double acc = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
      acc += sorted[i].value;
      ++i;
    }
    sorted[m++] = {r, c, acc};
    ++a.row_len_[r];
  }
  a.nnz_ = m;

  a.slice_start_.resize(slices + 1);
  std::size_t storage = 0;
  for (std::size_t s = 0; s < slices; ++s) {
    a.slice_start_[s] = storage;
    const auto first =
        a.row_len_.begin() + static_cast<std::ptrdiff_t>(s * kC);
    storage +=
        kC * static_cast<std::size_t>(*std::max_element(first, first + kC));
  }
  a.slice_start_[slices] = storage;

  // Padding: value 0 at column 0, which is in range whenever n > 0.
  a.col_.assign(storage, 0);
  a.values_.assign(storage, 0.0);
  std::size_t e = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t p = a.slice_start_[r / kC] + r % kC;
    for (std::int32_t k = 0; k < a.row_len_[r]; ++k, ++e, p += kC) {
      a.col_[p] = static_cast<std::int32_t>(sorted[e].col);
      a.values_[p] = sorted[e].value;
    }
  }
  return a;
}

Sell8View SparseMatrix::view() const {
  return {n_, slice_start_.data(), row_len_.data(), col_.data(),
          values_.data()};
}

Vector SparseMatrix::multiply(const Vector& x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  }
  Vector y(n_, 0.0);
  backend().sell8_matvec(view(), x.data(), nullptr, y.data());
  return y;
}

double SparseMatrix::multiply_dot(const Vector& x, Vector& y) const {
  if (x.size() != n_) {
    throw std::invalid_argument("SparseMatrix::multiply_dot: size mismatch");
  }
  y.resize(n_);
  return backend().sell8_matvec(view(), x.data(), nullptr, y.data());
}

void SparseMatrix::residual_into(const Vector& b, const Vector& x,
                                 Vector& r) const {
  if (x.size() != n_ || b.size() != n_) {
    throw std::invalid_argument("SparseMatrix::residual_into: size mismatch");
  }
  r.resize(n_);
  backend().sell8_matvec(view(), x.data(), b.data(), r.data());
}

Vector SparseMatrix::diagonal() const {
  Vector d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t p = position(r, r);
    if (p != npos) d[r] = values_[p];
  }
  return d;
}

std::size_t SparseMatrix::position(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("SparseMatrix::position: index out of range");
  }
  std::size_t p = slice_start_[r / kC] + r % kC;
  for (std::int32_t k = 0; k < row_len_[r]; ++k, p += kC) {
    const auto col = static_cast<std::size_t>(col_[p]);
    if (col == c) return p;
    if (col > c) break;
  }
  return npos;
}

double SparseMatrix::get(std::size_t r, std::size_t c) const {
  const std::size_t p = position(r, c);
  return p != npos ? values_[p] : 0.0;
}

bool SparseMatrix::is_symmetric(double tol) const {
  bool symmetric = true;
  for_each_entry([&](std::size_t r, std::size_t c, std::size_t p) {
    symmetric = symmetric && !(std::abs(values_[p] - get(c, r)) > tol);
  });
  return symmetric;
}

}  // namespace oftec::la
