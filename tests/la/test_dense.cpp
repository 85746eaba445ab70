#include <gtest/gtest.h>

#include "la/dense_lu.h"
#include "la/dense_matrix.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

TEST(DenseMatrix, InitializerListAndAccess) {
  const DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
  EXPECT_THROW((void)a.at(2, 0), std::out_of_range);
}

TEST(DenseMatrix, RaggedInitializerThrows) {
  EXPECT_THROW((DenseMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(DenseMatrix, MultiplyVector) {
  const DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(DenseMatrix, MultiplyTransposed) {
  const DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a.multiply_transposed({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(DenseMatrix, MatrixProductAndTranspose) {
  const DenseMatrix a = {{1.0, 2.0}, {0.0, 1.0}};
  const DenseMatrix b = {{1.0, 0.0}, {3.0, 1.0}};
  const DenseMatrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 2.0);
  const DenseMatrix at = a.transposed();
  EXPECT_DOUBLE_EQ(at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(at(1, 0), 2.0);
}

TEST(DenseLu, SolvesKnownSystem) {
  const DenseMatrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  const DenseMatrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  const DenseMatrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(DenseLu{a}, std::runtime_error);
}

TEST(DenseLu, Determinant) {
  const DenseMatrix a = {{2.0, 0.0}, {0.0, 3.0}};
  EXPECT_NEAR(DenseLu(a).determinant(), 6.0, 1e-12);
  const DenseMatrix swapped = {{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(DenseLu(swapped).determinant(), -1.0, 1e-12);
}

TEST(DenseLu, InverseTimesMatrixIsIdentity) {
  const DenseMatrix a = {{4.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}};
  const DenseMatrix inv = invert_dense(a);
  const DenseMatrix eye = a.matmul(inv);
  EXPECT_LT(eye.max_abs_diff(DenseMatrix::identity(3)), 1e-12);
}

class RandomDenseSolveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomDenseSolveTest, ResidualIsTiny) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n);  // well-conditioned
  }
  Vector b(n);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  const Vector x = solve_dense(a, b);
  const Vector ax = a.multiply(x);
  EXPECT_LT(max_abs_diff(ax, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomDenseSolveTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace oftec::la
