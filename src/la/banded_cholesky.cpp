#include "la/banded_cholesky.h"

#include <optional>
#include <stdexcept>

#include "la/backend.h"
#include "la/cholesky_core.h"

namespace oftec::la {

// Factorization and solves run on the backend's panel kernels over the
// column-major band layout (see la/cholesky_core.h for the layout and the
// bit-exactness argument). The factorization and forward substitution are
// element-wise — identical bits on every backend, and identical to the seed
// implementation this class started as. Back substitution is a row fold:
// scalar keeps the seed's sequential arithmetic; simd uses its deterministic
// 8-lane tree (ULP-bounded, AVX2 ≡ AVX-512; see backend.h).

BandedCholesky::BandedCholesky(const BandedMatrix& a)
    : n_(a.size()), k_(a.lower_bandwidth()) {
  if (a.lower_bandwidth() != a.upper_bandwidth()) {
    throw std::invalid_argument(
        "BandedCholesky: matrix must have symmetric bandwidths");
  }
  factor_.resize((k_ + 1) * n_);
  detail::fill_lower_band(a, k_, factor_.data());
  const std::optional<double> min_diag =
      detail::banded_cholesky_factor_inplace(n_, k_, factor_.data(),
                                             backend());
  if (!min_diag) {
    throw std::runtime_error("BandedCholesky: matrix not positive definite");
  }
  min_diag_ = *min_diag;
}

Vector BandedCholesky::solve(const Vector& b) const {
  if (b.size() != n_) {
    throw std::invalid_argument("BandedCholesky::solve: size mismatch");
  }
  const BackendOps& ops = backend();
  Vector x = b;
  ops.trsv_fwd(n_, k_, factor_.data(), x.data());
  ops.trsv_bwd(n_, k_, factor_.data(), x.data());
  return x;
}

}  // namespace oftec::la
