#include "la/dense_matrix.h"

#include <cmath>
#include <stdexcept>

namespace oftec::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

DenseMatrix::DenseMatrix(
    std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("DenseMatrix: ragged initializer");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

double& DenseMatrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("DenseMatrix::at");
  }
  return data_[r * cols_ + c];
}

double DenseMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("DenseMatrix::at");
  }
  return data_[r * cols_ + c];
}

Vector DenseMatrix::multiply(const Vector& x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("DenseMatrix::multiply: size mismatch");
  }
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

Vector DenseMatrix::multiply_transposed(const Vector& x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument(
        "DenseMatrix::multiply_transposed: size mismatch");
  }
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) y[c] += (*this)(r, c) * x[r];
  }
  return y;
}

DenseMatrix DenseMatrix::matmul(const DenseMatrix& b) const {
  if (cols_ != b.rows()) {
    throw std::invalid_argument("DenseMatrix::matmul: shape mismatch");
  }
  DenseMatrix out(rows_, b.cols());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a_rk = (*this)(r, k);
      if (a_rk == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) {
        out(r, c) += a_rk * b(k, c);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& b) const {
  if (rows_ != b.rows() || cols_ != b.cols()) {
    throw std::invalid_argument("DenseMatrix::max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      m = std::max(m, std::abs((*this)(r, c) - b(r, c)));
    }
  }
  return m;
}

}  // namespace oftec::la
