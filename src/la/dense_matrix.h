// Row-major dense matrix.
//
// Dense storage is used for small systems only: the SQP/QP working matrices
// (a handful of variables/constraints) and as a brute-force reference in
// tests. The thermal network uses BandedMatrix / SparseMatrix instead.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "la/vector_ops.h"

namespace oftec::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows×cols zero matrix.
  DenseMatrix(std::size_t rows, std::size_t cols);

  /// Build from nested initializer list; all rows must have equal arity.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> init);

  /// n×n identity.
  [[nodiscard]] static DenseMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Unchecked access for hot paths.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// y = A x. Requires x.size() == cols().
  [[nodiscard]] Vector multiply(const Vector& x) const;

  /// y = Aᵀ x. Requires x.size() == rows().
  [[nodiscard]] Vector multiply_transposed(const Vector& x) const;

  /// C = A B. Requires cols() == b.rows(). (Named distinctly from the
  /// vector overload so brace-initialized vectors stay unambiguous.)
  [[nodiscard]] DenseMatrix matmul(const DenseMatrix& b) const;

  /// Aᵀ.
  [[nodiscard]] DenseMatrix transposed() const;

  /// max_{i,j} |A_ij - B_ij|; matrices must be the same shape.
  [[nodiscard]] double max_abs_diff(const DenseMatrix& b) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace oftec::la
