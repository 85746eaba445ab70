// Deterministic test-system builders and hex codecs shared by the
// backend-parity suite and the golden generator (gen_la_goldens).
//
// The golden file tests/la/goldens/la_scalar.txt pins the *bits* the scalar
// backend produced at the seed revision (before the column-major band
// storage and the backend seam landed). The generator rebuilds each case
// from a named seed; the parity suite replays the same builders and asserts
// the scalar backend still reproduces every value exactly. Doubles travel as
// 16-hex-digit IEEE-754 payloads so the comparison is bit-level, not
// tolerance-level.
//
// Keep the builders frozen: changing any Rng draw order silently retires the
// goldens. New cases append; existing cases never change.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/backend.h"
#include "la/banded_matrix.h"
#include "la/split_cholesky.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace oftec::la::testing {

inline std::string hex_double(double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

inline double unhex_double(const std::string& s) {
  if (s.size() != 16) throw std::invalid_argument("unhex_double: bad token");
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(std::stoull(s, nullptr, 16)));
}

/// One randomized banded general system, deterministic in `seed`.
struct BandedCase {
  std::string name;
  BandedMatrix a;
  Vector b;
};

/// General (possibly unsymmetric-band) system for the LU goldens. The
/// `diag_boost` knob controls conditioning: 3.0 gives a comfortably
/// nonsingular matrix, small values force heavy pivoting and near-singular
/// behaviour without actually crossing into singularity.
inline BandedCase make_banded_case(std::uint64_t seed, std::size_t n,
                                   std::size_t kl, std::size_t ku,
                                   double diag_boost) {
  util::Rng rng(seed);
  BandedCase c;
  c.name = "lu_s" + std::to_string(seed) + "_n" + std::to_string(n) + "_kl" +
           std::to_string(kl) + "_ku" + std::to_string(ku);
  c.a = BandedMatrix(n, kl, ku);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!c.a.in_band(i, j)) continue;
      c.a.at(i, j) = rng.uniform(-1.0, 1.0);
    }
    c.a.at(i, i) += diag_boost;
  }
  c.b.resize(n);
  for (double& v : c.b) v = rng.uniform(-10.0, 10.0);
  return c;
}

/// Symmetric positive-definite system (diagonally dominant) for the Cholesky
/// goldens; bandwidth k on both sides.
inline BandedCase make_spd_case(std::uint64_t seed, std::size_t n,
                                std::size_t k) {
  util::Rng rng(seed);
  BandedCase c;
  c.name = "spd_s" + std::to_string(seed) + "_n" + std::to_string(n) + "_k" +
           std::to_string(k);
  c.a = BandedMatrix(n, k, k);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i_hi = (j + k < n) ? j + k : n - 1;
    for (std::size_t i = j + 1; i <= i_hi; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      c.a.at(i, j) = v;
      c.a.at(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && c.a.in_band(i, j)) row += (c.a.get(i, j) < 0.0)
                                                  ? -c.a.get(i, j)
                                                  : c.a.get(i, j);
    }
    c.a.at(i, i) = row + rng.uniform(0.5, 1.5);
  }
  c.b.resize(n);
  for (double& v : c.b) v = rng.uniform(-10.0, 10.0);
  return c;
}

/// The banded Cholesky of `a`: a BandedCholeskyNumeric over a fresh
/// symbolic analysis. Throws as analyze() and refactorize() do.
inline BandedCholeskyNumeric factor_cholesky(const BandedMatrix& a) {
  BandedCholeskyNumeric chol(std::make_shared<const BandedCholeskySymbolic>(
      BandedCholeskySymbolic::analyze(a)));
  chol.refactorize(a);
  return chol;
}

/// Paired random vectors for the BLAS-1 kernel goldens.
struct VectorCase {
  std::string name;
  Vector x;
  Vector y;
  double alpha = 0.0;
};

inline VectorCase make_vector_case(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  VectorCase c;
  c.name = "vec_s" + std::to_string(seed) + "_n" + std::to_string(n);
  c.x.resize(n);
  c.y.resize(n);
  for (double& v : c.x) v = rng.uniform(-1.0, 1.0);
  for (double& v : c.y) v = rng.uniform(-1.0, 1.0);
  c.alpha = rng.uniform(-2.0, 2.0);
  return c;
}

/// The frozen golden case lists. Append only.
struct LuSpec { std::uint64_t seed; std::size_t n, kl, ku; double boost; };
inline const std::vector<LuSpec>& lu_golden_specs() {
  static const std::vector<LuSpec> specs = {
      {101, 1, 0, 0, 3.0},    {102, 5, 1, 1, 3.0},   {103, 8, 2, 1, 3.0},
      {104, 12, 3, 3, 3.0},   {105, 30, 5, 5, 3.0},  {106, 64, 7, 7, 3.0},
      {107, 90, 10, 10, 3.0}, {108, 40, 1, 2, 3.0},  {109, 25, 7, 3, 3.0},
      {110, 16, 15, 15, 3.0}, {111, 20, 2, 2, 0.05}, {112, 33, 4, 4, 0.01},
      {113, 48, 6, 2, 1e-4},  {114, 7, 3, 1, 1e-6},
  };
  return specs;
}
struct SpdSpec { std::uint64_t seed; std::size_t n, k; };
inline const std::vector<SpdSpec>& spd_golden_specs() {
  static const std::vector<SpdSpec> specs = {
      {201, 1, 0},  {202, 6, 1},  {203, 12, 2},  {204, 30, 4},
      {205, 64, 9}, {206, 90, 12}, {207, 17, 16},
  };
  return specs;
}
struct VecSpec { std::uint64_t seed; std::size_t n; };
inline const std::vector<VecSpec>& vec_golden_specs() {
  static const std::vector<VecSpec> specs = {
      {301, 1}, {302, 7}, {303, 8}, {304, 9}, {305, 63},
      {306, 64}, {307, 65}, {308, 903}, {309, 8192},
  };
  return specs;
}

/// Large-bandwidth SPD factorization cases pinning the panel-blocked Cholesky
/// at the bandwidth the 32×32-floorplan thermal system produces (k = 1025).
/// Kept out of spd_golden_specs() (and out of solve_fingerprint) so the
/// small-case determinism tests stay fast; replayed by the dedicated
/// large-grid golden test and the avx2≡avx512 check instead.
inline const std::vector<SpdSpec>& large_spd_golden_specs() {
  static const std::vector<SpdSpec> specs = {
      {211, 1281, 1025},  // 32×32-floorplan bandwidth, n > k so the
                          // panel/external-block path is fully exercised
  };
  return specs;
}

/// Deterministic inputs for the panel / fused-kernel goldens (panel_update,
/// panel_fold, cg_update, precond_dot, search_dir_update). The large sizes
/// (9219, 36867) are the node counts of 32×32 and 64×64 floorplan systems,
/// so the fused CG kernels are pinned at the vector lengths they target.
struct KernSpec { std::uint64_t seed; std::size_t n; };
inline const std::vector<KernSpec>& kernel_golden_specs() {
  static const std::vector<KernSpec> specs = {
      {401, 1},   {402, 7},   {403, 8},    {404, 9},     {405, 63},
      {406, 64},  {407, 65},  {408, 903},  {409, 8192},  {410, 9219},
      {411, 36867},
  };
  return specs;
}

/// Inputs for one kernel golden case. `src`/`src_alpha`/`src_len` feed
/// panel_update (arbitrary non-monotone support lengths, always including one
/// full and — when there are enough sources — one empty source, to exercise
/// the relaxed contract); `w` is a fixed weight vector used to reduce mutated
/// output vectors to a single checksum via the *scalar* dot kernel, so large
/// cases pin full-vector bits without storing full vectors in the golden
/// file. `d` doubles as a positive Jacobi diagonal and as panel_fold inits.
struct KernelCase {
  std::string name;
  Vector x, y, d, w;
  double alpha = 0.0, beta = 0.0;
  static constexpr std::size_t kSources = 6;
  std::vector<Vector> src;
  std::vector<double> src_alpha;
  std::vector<std::size_t> src_len;
};

inline KernelCase make_kernel_case(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  KernelCase c;
  c.name = "kern_s" + std::to_string(seed) + "_n" + std::to_string(n);
  c.x.resize(n);
  c.y.resize(n);
  c.d.resize(n);
  c.w.resize(n);
  for (double& v : c.x) v = rng.uniform(-1.0, 1.0);
  for (double& v : c.y) v = rng.uniform(-1.0, 1.0);
  for (double& v : c.d) v = rng.uniform(0.5, 2.0);
  for (double& v : c.w) v = rng.uniform(-1.0, 1.0);
  c.alpha = rng.uniform(-2.0, 2.0);
  c.beta = rng.uniform(-2.0, 2.0);
  c.src.resize(KernelCase::kSources);
  c.src_alpha.resize(KernelCase::kSources);
  c.src_len.resize(KernelCase::kSources);
  for (std::size_t s = 0; s < KernelCase::kSources; ++s) {
    c.src[s].resize(n);
    for (double& v : c.src[s]) v = rng.uniform(-1.0, 1.0);
    c.src_alpha[s] = rng.uniform(-2.0, 2.0);
    c.src_len[s] = static_cast<std::size_t>(s * 2654435761ull + seed) % (n + 1);
  }
  c.src_len[0] = n;
  if (KernelCase::kSources > 3 && n > 3) c.src_len[3] = 0;
  return c;
}

/// Bit-level fingerprint of every panel / fused kernel on one KernelCase,
/// evaluated with `ops`. Returns labeled hex tokens in a fixed order:
///   panel <chk(y')> pfold <out_0..out_5> cg <rr> <chk(x')> <chk(r')>
///   pre <rz> <chk(z)> sdir <chk(p')>
/// Checksums always reduce with the *scalar* dot kernel so a checksum
/// mismatch implies an output-vector bit difference, independent of which
/// backend ran the kernel under test. panel_fold runs with
/// p = min(kSources, n) folds (padding unused slots with hex(0.0)) over
/// stride-packed columns of src[1], with the ascending-capped length profile
/// trsv_bwd generates.
inline std::vector<std::string> kernel_fingerprint(const BackendOps& ops,
                                                   const KernelCase& c) {
  const std::size_t n = c.x.size();
  const BackendOps& ref = scalar_backend();
  const auto chk = [&](const Vector& v) {
    return hex_double(ref.dot(n, v.data(), c.w.data()));
  };
  std::vector<std::string> fp;
  fp.emplace_back("panel");
  {
    Vector y = c.y;
    const double* xs[KernelCase::kSources];
    for (std::size_t s = 0; s < KernelCase::kSources; ++s) {
      xs[s] = c.src[s].data();
    }
    ops.panel_update(KernelCase::kSources, c.src_alpha.data(), xs,
                     c.src_len.data(), y.data());
    fp.push_back(chk(y));
  }
  fp.emplace_back("pfold");
  {
    const std::size_t p = std::min(KernelCase::kSources, n);
    const std::size_t sa = std::max<std::size_t>(1, n / (2 * p));
    const std::size_t len_cap = n - (p - 1) * sa;
    const std::size_t len0 = std::max<std::size_t>(1, len_cap / 2);
    double out[KernelCase::kSources] = {};
    ops.panel_fold(p, c.d.data(), c.src[1].data(), sa, len0, len_cap,
                   c.x.data(), out);
    for (std::size_t s = 0; s < KernelCase::kSources; ++s) {
      fp.push_back(hex_double(s < p ? out[s] : 0.0));
    }
  }
  fp.emplace_back("cg");
  {
    Vector x = c.x;
    Vector r = c.y;
    const double rr = ops.cg_update(n, c.alpha, c.src[0].data(),
                                    c.src[1].data(), x.data(), r.data());
    fp.push_back(hex_double(rr));
    fp.push_back(chk(x));
    fp.push_back(chk(r));
  }
  fp.emplace_back("pre");
  {
    Vector z(n);
    const double rz = ops.precond_dot(n, c.d.data(), c.y.data(), z.data());
    fp.push_back(hex_double(rz));
    fp.push_back(chk(z));
  }
  fp.emplace_back("sdir");
  {
    Vector p = c.x;
    ops.search_dir_update(n, c.beta, c.y.data(), p.data());
    fp.push_back(chk(p));
  }
  return fp;
}

}  // namespace oftec::la::testing
