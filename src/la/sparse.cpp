#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oftec::la {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("TripletBuilder::add: index out of range");
  }
  triplets_.push_back({r, c, v});
}

CsrMatrix TripletBuilder::build() const {
  std::vector<Triplet> sorted = triplets_;
  // Stable: duplicates stay in insertion order, so each sum below runs in
  // the order the caller added its terms, on every standard library.
  std::stable_sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    row_ptr[r] = values.size();
    while (i < sorted.size() && sorted[i].row == r) {
      const std::size_t c = sorted[i].col;
      double acc = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        acc += sorted[i].value;
        ++i;
      }
      col_idx.push_back(c);
      values.push_back(acc);
    }
  }
  row_ptr[n_] = values.size();
  return CsrMatrix(n_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : n_(n),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.size() != n_ + 1 || col_idx_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: inconsistent arrays");
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  if (x.size() != n_) {
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  }
  Vector y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
  return y;
}

double CsrMatrix::multiply_dot(const Vector& x, Vector& y) const {
  if (x.size() != n_) {
    throw std::invalid_argument("CsrMatrix::multiply_dot: size mismatch");
  }
  y.resize(n_);
  double dot_acc = 0.0;
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
    dot_acc += x[r] * acc;
  }
  return dot_acc;
}

void CsrMatrix::residual_into(const Vector& b, const Vector& x,
                              Vector& r) const {
  if (x.size() != n_ || b.size() != n_) {
    throw std::invalid_argument("CsrMatrix::residual_into: size mismatch");
  }
  r.resize(n_);
  for (std::size_t row = 0; row < n_; ++row) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    r[row] = b[row] - acc;
  }
}

Vector CsrMatrix::diagonal() const {
  Vector d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        d[r] = values_[k];
        break;
      }
    }
  }
  return d;
}

double CsrMatrix::get(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("CsrMatrix::get: index out of range");
  }
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    if (col_idx_[k] == c) return values_[k];
  }
  return 0.0;
}

bool CsrMatrix::is_symmetric(double tol) const {
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (std::abs(values_[k] - get(c, r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace oftec::la
