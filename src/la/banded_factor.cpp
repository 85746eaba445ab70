#include "la/banded_factor.h"

#include <stdexcept>

#include "la/backend.h"
#include "la/cholesky_core.h"
#include "util/obs.h"

namespace oftec::la {

namespace {
const obs::Counter g_obs_cholesky =
    obs::counter("la.cholesky.refactorizations");
const obs::Counter g_obs_lu_fallbacks = obs::counter("la.lu.fallbacks");
}  // namespace

void BandedFactor::refactorize(const BandedMatrix& a) {
  if (a.lower_bandwidth() != a.upper_bandwidth()) {
    throw std::invalid_argument(
        "BandedFactor: matrix must have symmetric bandwidths");
  }
  kind_ = Kind::kNone;
  n_ = a.size();
  k_ = a.lower_bandwidth();
  lower_.resize((k_ + 1) * n_);
  detail::fill_lower_band(a, k_, lower_.data());
  g_obs_cholesky.add();
  if (detail::banded_cholesky_factor_inplace(n_, k_, lower_.data(),
                                              backend())) {
    lu_ = BandedLu();  // release a previous fallback's full band
    kind_ = Kind::kCholesky;
    return;
  }
  g_obs_lu_fallbacks.add();
  lu_ = BandedLu(a);
  kind_ = Kind::kLu;
}

void BandedFactor::solve_in_place(Vector& x) const {
  switch (kind_) {
    case Kind::kCholesky: {
      if (x.size() != n_) {
        throw std::invalid_argument("BandedFactor::solve: size mismatch");
      }
      const BackendOps& ops = backend();
      ops.trsv_fwd(n_, k_, lower_.data(), x.data());
      ops.trsv_bwd(n_, k_, lower_.data(), x.data());
      return;
    }
    case Kind::kLu:
      lu_.solve_in_place(x);
      return;
    case Kind::kNone:
      break;
  }
  throw std::logic_error("BandedFactor::solve: no valid factorization");
}

Vector BandedFactor::solve(const Vector& b) const {
  Vector x = b;
  solve_in_place(x);
  return x;
}

}  // namespace oftec::la
