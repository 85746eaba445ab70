#include "la/split_cholesky.h"

#include <optional>
#include <stdexcept>

#include "la/backend.h"
#include "la/cholesky_core.h"
#include "util/obs.h"

namespace oftec::la {

namespace {
const obs::Counter g_obs_refactorizations =
    obs::counter("la.cholesky.refactorizations");
}  // namespace

BandedCholeskySymbolic::BandedCholeskySymbolic(std::size_t n,
                                               std::size_t bandwidth)
    : n_(n), k_(bandwidth) {
  if (n == 0) {
    throw std::invalid_argument("BandedCholeskySymbolic: empty matrix");
  }
}

BandedCholeskySymbolic BandedCholeskySymbolic::analyze(const BandedMatrix& a) {
  if (a.lower_bandwidth() != a.upper_bandwidth()) {
    throw std::invalid_argument(
        "BandedCholeskySymbolic: matrix must have symmetric bandwidths");
  }
  return {a.size(), a.lower_bandwidth()};
}

bool BandedCholeskySymbolic::matches(const BandedMatrix& a) const noexcept {
  return a.size() == n_ && a.lower_bandwidth() == k_ &&
         a.upper_bandwidth() == k_;
}

BandedCholeskyNumeric::BandedCholeskyNumeric(
    std::shared_ptr<const BandedCholeskySymbolic> symbolic)
    : symbolic_(std::move(symbolic)) {
  if (!symbolic_) {
    throw std::invalid_argument("BandedCholeskyNumeric: null symbolic");
  }
  factor_.assign(symbolic_->factor_storage(), 0.0);
}

void BandedCholeskyNumeric::refactorize(const BandedMatrix& a) {
  if (!symbolic_->matches(a)) {
    throw std::invalid_argument(
        "BandedCholeskyNumeric::refactorize: structure mismatch");
  }
  const std::size_t n = symbolic_->size();
  const std::size_t k = symbolic_->bandwidth();
  g_obs_refactorizations.add();
  factorized_ = false;

  // The shared panel-blocked core (la/cholesky_core.h) into reused storage:
  // identical arithmetic, in identical order, to la::BandedFactor's
  // Cholesky path — and backend-invariant bits, since every operation is
  // element-wise.
  detail::fill_lower_band(a, k, factor_.data());
  const std::optional<double> min_diag =
      detail::banded_cholesky_factor_inplace(n, k, factor_.data(), backend());
  if (!min_diag) {
    throw std::runtime_error(
        "BandedCholeskyNumeric: matrix not positive definite");
  }
  min_diag_ = *min_diag;
  factorized_ = true;
}

Vector BandedCholeskyNumeric::solve(const Vector& b) const {
  if (!factorized_) {
    throw std::logic_error("BandedCholeskyNumeric::solve: no valid factor");
  }
  const std::size_t n = symbolic_->size();
  const std::size_t k = symbolic_->bandwidth();
  if (b.size() != n) {
    throw std::invalid_argument("BandedCholeskyNumeric::solve: size mismatch");
  }
  const BackendOps& ops = backend();
  Vector x = b;
  ops.trsv_fwd(n, k, factor_.data(), x.data());
  ops.trsv_bwd(n, k, factor_.data(), x.data());
  return x;
}

}  // namespace oftec::la
