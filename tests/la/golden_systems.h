// Deterministic test-system builders and hex codecs shared by the
// backend-parity suite and the golden generator (gen_la_goldens).
//
// The golden file tests/la/goldens/la_scalar.txt pins the *bits* the scalar
// backend produced at the seed revision (before the column-major band
// storage and the backend seam landed); la_simd.txt pins the bits of every
// simd kernel (backend_golden_lines, written from the AVX-512 table and
// replayed on both flavors). The generator rebuilds each case from a named
// seed; the parity suite replays the same builders and asserts the backend
// still reproduces every value exactly. Doubles travel as 16-hex-digit
// IEEE-754 payloads so the comparison is bit-level, not tolerance-level.
//
// Keep the builders frozen: changing any Rng draw order silently retires the
// goldens. New cases append; existing cases never change.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "la/backend.h"
#include "la/banded_lu.h"
#include "la/banded_matrix.h"
#include "la/sparse.h"
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

/// FNV-1a (64-bit) over the IEEE-754 bytes of v[0..n): an exact fingerprint
/// of a whole output vector in one token (any bit change moves it, barring a
/// 2⁻⁶⁴ collision).
inline std::string hex_digest(const double* v, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(v[i]);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
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

/// A seeded random sparse pattern for the SELL-8 mat-vec, with the triplets
/// it was built from coalesced here (in insertion order, like the builder)
/// into the CSR-order rows a reference loop walks.
struct SparsePatternCase {
  SparseMatrix a;
  std::vector<std::vector<std::pair<std::size_t, double>>> rows;
  std::vector<bool> referenced;  ///< column c appears in some stored entry
};

inline SparsePatternCase make_sparse_pattern_case(std::uint64_t seed,
                                                  std::size_t n) {
  util::Rng rng(seed);
  SparsePatternCase c;
  std::map<std::pair<std::size_t, std::size_t>, double> entries;
  TripletBuilder builder(n);
  const auto add = [&](std::size_t r, std::size_t col, double v) {
    builder.add(r, col, v);
    entries[{r, col}] += v;
  };
  for (std::size_t r = 0; r < n; ++r) {
    // Rows 8..15 form an all-empty slice; row 3 holds exactly 8 entries and
    // row 17 exactly 9 where n allows; the rest hold 0 to 41.
    std::size_t len = static_cast<std::size_t>(rng.uniform_index(42));
    if (r >= 8 && r < 16) len = 0;
    if (r == 3) len = 8;
    if (r == 17) len = 9;
    // Columns come from [1, n) so column 0 stays unreferenced whenever
    // n > 1.
    const std::size_t span = n > 1 ? n - 1 : 1;
    len = std::min(len, span);
    std::vector<std::size_t> cols;
    while (cols.size() < len) {
      const std::size_t col =
          n > 1 ? 1 + static_cast<std::size_t>(rng.uniform_index(span)) : 0;
      if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
        cols.push_back(col);
      }
    }
    for (const std::size_t col : cols) {
      const double v = rng.uniform(-2.0, 2.0);
      if (rng.uniform() < 0.2) {  // a duplicate triplet, summed on build
        add(r, col, 0.5 * v);
        add(r, col, rng.uniform(-1.0, 1.0));
      } else {
        add(r, col, v);
      }
    }
  }
  c.a = builder.build();
  c.rows.resize(n);
  c.referenced.assign(n, false);
  for (const auto& [rc, v] : entries) {
    c.rows[rc.first].emplace_back(rc.second, v);
    c.referenced[rc.second] = true;
  }
  return c;
}

/// Deterministic well-conditioned lower-band factor in the column-major
/// layout the trsv kernels consume (column j at factor + j·(k+1), diagonal
/// first). Diagonals in [2,3], off-diagonals O(1/k): far from singular.
inline std::vector<double> make_band_factor(std::uint64_t seed, std::size_t n,
                                            std::size_t k) {
  util::Rng rng(seed);
  std::vector<double> f((k + 1) * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double* col = f.data() + j * (k + 1);
    col[0] = rng.uniform(2.0, 3.0);
    const std::size_t sub = std::min(k, n - 1 - j);
    for (std::size_t r = 1; r <= sub; ++r) {
      col[r] = rng.uniform(-1.0, 1.0) / static_cast<double>(k + 1);
    }
  }
  return f;
}

/// One golden line: a case name and its tokens.
using GoldenLine = std::pair<std::string, std::vector<std::string>>;

/// The bit surface of the *installed* backend: every BackendOps entry on
/// frozen cases, one line per case, in a fixed order —
///   LU, Cholesky and large-band Cholesky solves (min pivot / min diagonal
///   and the full solution; these run trsv and the panel kernels);
///   vec_*: dot, axpy, scale, axpy_dot, max_abs_diff and nmsub_fold forwards
///   and with stride −1, plus one case at strides −3 / −2;
///   kern_*: kernel_fingerprint (panel and fused-CG kernels);
///   sell8_*: y = A·x with its fused dot and r = b − A·x at n ∈ {1, 7, 8, 9,
///   903} (short last slices, an all-empty slice);
///   sweep_*: both column sweeps at n ∈ {1, 7, 9, 903};
///   trsv_*: trsv_fwd then trsv_bwd at k < 8 and k ≥ 8.
/// Whole output vectors are pinned through hex_digest. gen_la_goldens writes
/// these lines from the AVX-512 table into la_simd.txt.
inline std::vector<GoldenLine> backend_golden_lines() {
  const BackendOps& ops = backend();
  std::vector<GoldenLine> lines;
  const auto with_solution = [](std::vector<std::string> t, const Vector& x) {
    t.emplace_back("x");
    for (const double v : x) t.push_back(hex_double(v));
    return t;
  };
  for (const auto& s : lu_golden_specs()) {
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    const BandedLu lu(c.a);
    lines.emplace_back(c.name, with_solution({"pivot", hex_double(
                                                           lu.min_abs_pivot())},
                                             lu.solve(c.b)));
  }
  for (const auto* specs : {&spd_golden_specs(), &large_spd_golden_specs()}) {
    for (const auto& s : *specs) {
      const BandedCase c = make_spd_case(s.seed, s.n, s.k);
      const BandedCholeskyNumeric chol = factor_cholesky(c.a);
      lines.emplace_back(c.name,
                         with_solution({"diag", hex_double(chol.min_diagonal())},
                                       chol.solve(c.b)));
    }
  }
  for (const auto& s : vec_golden_specs()) {
    const VectorCase c = make_vector_case(s.seed, s.n);
    const std::size_t n = s.n;
    std::vector<std::string> t = {"dot",
                                  hex_double(ops.dot(n, c.x.data(), c.y.data()))};
    Vector y = c.y;
    ops.axpy(n, c.alpha, c.x.data(), y.data());
    t.insert(t.end(), {"axpy", hex_digest(y.data(), n)});
    Vector x = c.x;
    ops.scale(n, c.alpha, x.data());
    t.insert(t.end(), {"scale", hex_digest(x.data(), n)});
    y = c.y;
    const double ad = ops.axpy_dot(n, c.alpha, c.x.data(), y.data());
    t.insert(t.end(), {"axpy_dot", hex_double(ad), hex_digest(y.data(), n)});
    t.insert(t.end(),
             {"mad", hex_double(ops.max_abs_diff(n, c.x.data(), c.y.data()))});
    t.insert(t.end(), {"fold", hex_double(ops.nmsub_fold(1.5, n, c.x.data(), 1,
                                                         c.y.data(), 1))});
    t.insert(t.end(),
             {"rfold", hex_double(ops.nmsub_fold(1.5, n, c.x.data() + n - 1, -1,
                                                 c.y.data() + n - 1, -1))});
    lines.emplace_back(c.name, std::move(t));
  }
  {
    // The Cholesky row-walk shape: both operands backwards, unequal strides.
    const VectorCase c = make_vector_case(777, 601);
    lines.emplace_back(
        "nmsub_s777_n601",
        std::vector<std::string>{
            "fold", hex_double(ops.nmsub_fold(0.25, 200, c.x.data() + 600, -3,
                                              c.y.data() + 600, -2))});
  }
  for (const auto& s : kernel_golden_specs()) {
    const KernelCase c = make_kernel_case(s.seed, s.n);
    lines.emplace_back(c.name, kernel_fingerprint(ops, c));
  }
  for (const std::size_t n : {1, 7, 8, 9, 903}) {
    const std::uint64_t seed = 0x5E11 + n;
    const SparsePatternCase c = make_sparse_pattern_case(seed, n);
    util::Rng rng(0xB0 + n);
    Vector x(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    Vector y, r;
    const double dot = c.a.multiply_dot(x, y);
    c.a.residual_into(b, x, r);
    lines.emplace_back(
        "sell8_s" + std::to_string(seed) + "_n" + std::to_string(n),
        std::vector<std::string>{"y", hex_digest(y.data(), n), "dot",
                                 hex_double(dot), "r", hex_digest(r.data(), n)});
  }
  for (const std::size_t n : {1, 7, 9, 903}) {
    const std::uint64_t seed = 600 + n;
    util::Rng rng(seed);
    Vector r(n), l(n), w(n), d(n), z(n);
    for (Vector* v : {&r, &l, &w, &d, &z}) {
      for (double& e : *v) e = rng.uniform(-1.0, 1.0);
    }
    Vector zf(n);
    ops.column_sweep_fwd(n, r.data(), l.data(), w.data(), zf.data());
    ops.column_sweep_bwd(n, d.data(), l.data(), w.data(), z.data());
    lines.emplace_back(
        "sweep_s" + std::to_string(seed) + "_n" + std::to_string(n),
        std::vector<std::string>{"fwd", hex_digest(zf.data(), n), "bwd",
                                 hex_digest(z.data(), n)});
  }
  const struct { std::size_t n, k; } trsv_sizes[] = {
      {5, 2}, {64, 7}, {65, 8}, {257, 33}, {903, 101},
  };
  std::uint64_t seed = 501;
  for (const auto& sz : trsv_sizes) {
    const std::vector<double> f = make_band_factor(seed, sz.n, sz.k);
    Vector x = make_vector_case(seed ^ 0xF0F0u, sz.n).x;
    std::vector<std::string> t;
    ops.trsv_fwd(sz.n, sz.k, f.data(), x.data());
    t.insert(t.end(), {"fwd", hex_digest(x.data(), sz.n)});
    ops.trsv_bwd(sz.n, sz.k, f.data(), x.data());
    t.insert(t.end(), {"bwd", hex_digest(x.data(), sz.n)});
    lines.emplace_back("trsv_s" + std::to_string(seed) + "_n" +
                           std::to_string(sz.n) + "_k" + std::to_string(sz.k),
                       std::move(t));
    ++seed;
  }
  return lines;
}

}  // namespace oftec::la::testing
