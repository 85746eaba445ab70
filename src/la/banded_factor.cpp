#include "la/banded_factor.h"

#include <optional>
#include <stdexcept>
#include <utility>

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
  refactorize(
      a.size(), a.lower_bandwidth(),
      [&a](double* lower) {
        detail::fill_lower_band(a, a.lower_bandwidth(), lower);
      },
      [&a] { return a; });
}

void BandedFactor::stage(std::size_t n, std::size_t k) {
  kind_ = Kind::kNone;
  n_ = n;
  k_ = k;
  lower_.resize((k + 1) * n);
}

bool BandedFactor::factor_staged() {
  g_obs_cholesky.add();
  if (!detail::banded_cholesky_factor_inplace(n_, k_, lower_.data(),
                                              backend())) {
    return false;
  }
  lu_ = BandedLu();  // release a previous fallback's full band
  kind_ = Kind::kCholesky;
  return true;
}

void BandedFactor::factor_lu(BandedMatrix full) {
  g_obs_lu_fallbacks.add();
  lu_ = BandedLu(std::move(full));
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
