// Differential tests for the la::Backend seam (docs/solver.md, "Kernel
// backends"). Three contracts, in decreasing strictness:
//
//   1. Scalar is the seed. The scalar backend must reproduce, bit for bit,
//      the outputs the solvers produced before the column-major storage and
//      the backend seam existed (tests/la/goldens/la_scalar.txt, generated
//      at the seed revision by gen_la_goldens).
//   2. Simd is deterministic. For a fixed table, identical inputs give
//      identical bits across repeated runs and across threads; the AVX2 and
//      AVX-512 flavors — one kernel source compiled twice over the same
//      8-lane pack — give identical bits to *each other*; and both reproduce
//      tests/la/goldens/la_simd.txt, so a simd kernel's bits cannot move
//      between commits unnoticed.
//   3. Simd is ULP-close to scalar. Element-wise kernels (axpy, scale) are
//      bit-identical; reductions reassociate, so they carry a bounded
//      accumulation-error difference; end-to-end solves are compared by
//      residual quality, which (unlike forward error) stays meaningful on
//      the near-singular cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "floorplan/ev6.h"
#include "la/backend.h"
#include "la/banded_lu.h"
#include "la/column_jacobi.h"
#include "la/sparse.h"
#include "la/vector_ops.h"
#include "package/package_config.h"
#include "tests/la/golden_systems.h"
#include "tests/la/layered_systems.h"
#include "thermal/model.h"
#include "util/rng.h"

namespace oftec::la {
namespace {

using testing::backend_golden_lines;
using testing::BandedCase;
using testing::factor_cholesky;
using testing::GoldenLine;
using testing::hex_double;
using testing::kernel_fingerprint;
using testing::kernel_golden_specs;
using testing::KernelCase;
using testing::large_spd_golden_specs;
using testing::lu_golden_specs;
using testing::make_banded_case;
using testing::make_band_factor;
using testing::make_kernel_case;
using testing::make_sparse_pattern_case;
using testing::make_spd_case;
using testing::make_vector_case;
using testing::SparsePatternCase;
using testing::spd_golden_specs;
using testing::vec_golden_specs;
using testing::VectorCase;

/// Installs a backend for one test and restores the environment-selected
/// backend on exit (install_backend(nullptr) re-resolves OFTEC_LA_BACKEND).
class ScopedBackend {
 public:
  explicit ScopedBackend(const char* spec) { install_backend(spec); }
  ~ScopedBackend() { install_backend(std::getenv("OFTEC_LA_BACKEND")); }
};

double residual_inf(const BandedMatrix& a, const Vector& x, const Vector& b) {
  const std::size_t n = a.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = b[i];
    const std::size_t j_lo = i > a.lower_bandwidth() ? i - a.lower_bandwidth()
                                                     : 0;
    const std::size_t j_hi = std::min(n - 1, i + a.upper_bandwidth());
    for (std::size_t j = j_lo; j <= j_hi; ++j) r -= a.get(i, j) * x[j];
    worst = std::max(worst, std::abs(r));
  }
  return worst;
}

double norm_inf_banded(const BandedMatrix& a) {
  const std::size_t n = a.size();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    const std::size_t j_lo = i > a.lower_bandwidth() ? i - a.lower_bandwidth()
                                                     : 0;
    const std::size_t j_hi = std::min(n - 1, i + a.upper_bandwidth());
    for (std::size_t j = j_lo; j <= j_hi; ++j) row += std::abs(a.get(i, j));
    worst = std::max(worst, row);
  }
  return worst;
}

/// A pivoted-LU (or Cholesky) solution is backward stable: its residual is
/// O(n · eps · ‖A‖ · ‖x‖) independent of conditioning. Both backends must
/// meet that bound — this is how the near-singular cases are judged, where
/// comparing the solutions themselves would only measure κ(A).
double stability_bound(const BandedCase& c, const Vector& x) {
  const double eps = 2.220446049250313e-16;
  return 64.0 * static_cast<double>(c.a.size()) * eps * norm_inf_banded(c.a) *
             (norm_inf(x) + 1.0) +
         1e-300;
}

// --------------------------------------------------------------------------
// 1. Scalar == seed goldens, bit for bit
// --------------------------------------------------------------------------

std::map<std::string, std::vector<std::string>> load_goldens(
    const char* file = "la_scalar.txt") {
  const std::string path = std::string(OFTEC_LA_GOLDEN_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::map<std::string, std::vector<std::string>> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string name, tok;
    ss >> name;
    std::vector<std::string> toks;
    while (ss >> tok) toks.push_back(tok);
    lines.emplace(std::move(name), std::move(toks));
  }
  return lines;
}

TEST(BackendGoldens, ScalarLuBitIdenticalToSeed) {
  const ScopedBackend scalar("scalar");
  const auto goldens = load_goldens();
  for (const auto& s : lu_golden_specs()) {
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden line for " << c.name;
    const std::vector<std::string>& t = it->second;
    // Layout: pivot <hex> x <hex>*n
    ASSERT_EQ(t.size(), 3 + s.n) << c.name;
    const BandedLu lu(c.a);
    EXPECT_EQ(hex_double(lu.min_abs_pivot()), t[1]) << c.name << " pivot";
    const Vector x = lu.solve(c.b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(hex_double(x[i]), t[3 + i]) << c.name << " x[" << i << "]";
    }
  }
}

TEST(BackendGoldens, ScalarCholeskyBitIdenticalToSeed) {
  const ScopedBackend scalar("scalar");
  const auto goldens = load_goldens();
  for (const auto& s : spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden line for " << c.name;
    const std::vector<std::string>& t = it->second;
    ASSERT_EQ(t.size(), 3 + s.n) << c.name;
    const BandedCholeskyNumeric chol = factor_cholesky(c.a);
    EXPECT_EQ(hex_double(chol.min_diagonal()), t[1]) << c.name << " diag";
    const Vector x = chol.solve(c.b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(hex_double(x[i]), t[3 + i]) << c.name << " x[" << i << "]";
    }
  }
}

TEST(BackendGoldens, ScalarVectorKernelsBitIdenticalToSeed) {
  const ScopedBackend scalar("scalar");
  const auto goldens = load_goldens();
  for (const auto& s : vec_golden_specs()) {
    const VectorCase c = make_vector_case(s.seed, s.n);
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden line for " << c.name;
    const std::vector<std::string>& t = it->second;
    // Layout: dot <hex> axpy <hex>*n axpy_dot <hex> mad <hex>
    ASSERT_EQ(t.size(), 7 + s.n) << c.name;
    EXPECT_EQ(hex_double(dot(c.x, c.y)), t[1]) << c.name << " dot";
    Vector y = c.y;
    axpy(c.alpha, c.x, y);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_EQ(hex_double(y[i]), t[3 + i]) << c.name << " axpy[" << i << "]";
    }
    y = c.y;
    EXPECT_EQ(hex_double(axpy_dot(c.alpha, c.x, y)), t[3 + s.n + 1])
        << c.name << " axpy_dot";
    EXPECT_EQ(hex_double(max_abs_diff(c.x, c.y)), t[3 + s.n + 3])
        << c.name << " mad";
  }
}

TEST(BackendGoldens, ScalarPanelAndFusedKernelsBitIdenticalToGolden) {
  const ScopedBackend scalar("scalar");
  const auto goldens = load_goldens();
  for (const auto& s : kernel_golden_specs()) {
    const KernelCase c = make_kernel_case(s.seed, s.n);
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden line for " << c.name;
    EXPECT_EQ(it->second, kernel_fingerprint(scalar_backend(), c)) << c.name;
  }
}

TEST(BackendGoldens, ScalarLargeBandCholeskyBitIdenticalToGolden) {
  // Pins the panel-blocked factorization at the 32×32-floorplan bandwidth
  // (k = 1025) — large enough that every blocking path (external source
  // blocks, dest-panel edges, in-panel finalize) runs many times.
  const ScopedBackend scalar("scalar");
  const auto goldens = load_goldens();
  for (const auto& s : large_spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden line for " << c.name;
    const std::vector<std::string>& t = it->second;
    ASSERT_EQ(t.size(), 3 + s.n) << c.name;
    const BandedCholeskyNumeric chol = factor_cholesky(c.a);
    EXPECT_EQ(hex_double(chol.min_diagonal()), t[1]) << c.name << " diag";
    const Vector x = chol.solve(c.b);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(hex_double(x[i]), t[3 + i]) << c.name << " x[" << i << "]";
    }
  }
}

TEST(BackendGoldens, SimdBitIdenticalToGolden) {
  // la_simd.txt was written from the AVX-512 table; AVX2 compiles the same
  // kernel source over a two-register pack, so one file pins both flavors.
  const auto goldens = load_goldens("la_simd.txt");
  bool ran = false;
  for (const auto& [spec, table] :
       {std::pair{"avx2", avx2_backend()}, {"avx512", avx512_backend()}}) {
    if (table == nullptr) continue;
    ran = true;
    const ScopedBackend b(spec);
    ASSERT_STREQ(backend().name, table->name);
    const std::vector<GoldenLine> lines = backend_golden_lines();
    EXPECT_EQ(lines.size(), goldens.size()) << spec;
    for (const auto& [name, toks] : lines) {
      const auto it = goldens.find(name);
      ASSERT_NE(it, goldens.end()) << "no golden line for " << name;
      ASSERT_EQ(it->second.size(), toks.size()) << spec << " " << name;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        ASSERT_EQ(it->second[i], toks[i])
            << spec << " " << name << " token " << i;
      }
    }
  }
  if (!ran) GTEST_SKIP() << "machine lacks both simd flavors";
}

// --------------------------------------------------------------------------
// 2. Scalar <-> simd parity
// --------------------------------------------------------------------------

TEST(BackendParity, ElementwiseKernelsBitIdentical) {
  const BackendOps* simd = simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "no simd backend on this machine";
  const BackendOps& scalar = scalar_backend();
  for (const auto& s : vec_golden_specs()) {
    const VectorCase c = make_vector_case(s.seed ^ 0xA5A5u, s.n);
    Vector ys = c.y, yv = c.y;
    scalar.axpy(s.n, c.alpha, c.x.data(), ys.data());
    simd->axpy(s.n, c.alpha, c.x.data(), yv.data());
    for (std::size_t i = 0; i < s.n; ++i) {
      EXPECT_EQ(hex_double(ys[i]), hex_double(yv[i]))
          << c.name << " axpy[" << i << "]";
    }
    Vector xs = c.x, xv = c.x;
    scalar.scale(s.n, c.alpha, xs.data());
    simd->scale(s.n, c.alpha, xv.data());
    for (std::size_t i = 0; i < s.n; ++i) {
      EXPECT_EQ(hex_double(xs[i]), hex_double(xv[i]))
          << c.name << " scale[" << i << "]";
    }
  }
}

TEST(BackendParity, ReductionKernelsUlpBounded) {
  const BackendOps* simd = simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "no simd backend on this machine";
  const BackendOps& scalar = scalar_backend();
  for (const auto& s : vec_golden_specs()) {
    const VectorCase c = make_vector_case(s.seed ^ 0x5A5Au, s.n);
    // Reassociating a length-n fold moves the result by at most
    // O(n · eps · Σ|terms|); 16·n·eps leaves comfortable margin.
    double mass = 0.0;
    for (std::size_t i = 0; i < s.n; ++i) mass += std::abs(c.x[i] * c.y[i]);
    const double bound =
        16.0 * static_cast<double>(s.n + 1) * 2.22e-16 * (mass + 1.0);

    EXPECT_NEAR(scalar.dot(s.n, c.x.data(), c.y.data()),
                simd->dot(s.n, c.x.data(), c.y.data()), bound)
        << c.name;
    Vector ys = c.y, yv = c.y;
    EXPECT_NEAR(scalar.axpy_dot(s.n, c.alpha, c.x.data(), ys.data()),
                simd->axpy_dot(s.n, c.alpha, c.x.data(), yv.data()),
        16.0 * static_cast<double>(s.n + 1) * 2.22e-16 *
            (dot(ys, ys) + 1.0))
        << c.name;
    EXPECT_NEAR(scalar.nmsub_fold(1.5, s.n, c.x.data(), 1, c.y.data(), 1),
                simd->nmsub_fold(1.5, s.n, c.x.data(), 1, c.y.data(), 1),
                bound)
        << c.name;
    // max over |differences| picks one element — exact in any order.
    EXPECT_EQ(hex_double(scalar.max_abs_diff(s.n, c.x.data(), c.y.data())),
              hex_double(simd->max_abs_diff(s.n, c.x.data(), c.y.data())))
        << c.name;
  }
}

TEST(BackendParity, StridedFoldMatchesScalarUnderNegativeStride) {
  const BackendOps* simd = simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "no simd backend on this machine";
  const BackendOps& scalar = scalar_backend();
  const VectorCase c = make_vector_case(777, 601);
  // Walk both vectors backwards (the Cholesky row-walk shape).
  const double* a_end = c.x.data() + 600;
  const double* x_end = c.y.data() + 600;
  const double s = scalar.nmsub_fold(0.25, 200, a_end, -3, x_end, -2);
  const double v = simd->nmsub_fold(0.25, 200, a_end, -3, x_end, -2);
  EXPECT_NEAR(s, v, 1e-12);
}

TEST(BackendParity, SolveResidualsBackwardStableUnderBothBackends) {
  // Includes the near-singular cases (diag_boost down to 1e-6): there the
  // two backends' *solutions* legitimately diverge by κ(A)·ULP, but both
  // must still satisfy the backward-stability residual bound.
  for (const auto& s : lu_golden_specs()) {
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    Vector xs, xv;
    {
      const ScopedBackend b("scalar");
      xs = BandedLu(c.a).solve(c.b);
    }
    if (simd_supported()) {
      const ScopedBackend b("simd");
      xv = BandedLu(c.a).solve(c.b);
    } else {
      xv = xs;
    }
    EXPECT_LE(residual_inf(c.a, xs, c.b), stability_bound(c, xs)) << c.name;
    EXPECT_LE(residual_inf(c.a, xv, c.b), stability_bound(c, xv)) << c.name;
  }
  for (const auto& s : spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    Vector xs, xv;
    {
      const ScopedBackend b("scalar");
      xs = factor_cholesky(c.a).solve(c.b);
    }
    if (simd_supported()) {
      const ScopedBackend b("simd");
      xv = factor_cholesky(c.a).solve(c.b);
    } else {
      xv = xs;
    }
    EXPECT_LE(residual_inf(c.a, xs, c.b), stability_bound(c, xs)) << c.name;
    EXPECT_LE(residual_inf(c.a, xv, c.b), stability_bound(c, xv)) << c.name;
  }
}

TEST(BackendParity, WellConditionedSolutionsUlpClose) {
  if (!simd_supported()) GTEST_SKIP() << "no simd backend on this machine";
  for (const auto& s : lu_golden_specs()) {
    if (s.boost < 1.0) continue;  // near-singular: judged by residual above
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    Vector xs, xv;
    {
      const ScopedBackend b("scalar");
      xs = BandedLu(c.a).solve(c.b);
    }
    {
      const ScopedBackend b("simd");
      xv = BandedLu(c.a).solve(c.b);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_NEAR(xs[i], xv[i], 1e-10 * (std::abs(xs[i]) + 1.0))
          << c.name << " x[" << i << "]";
    }
  }
}

TEST(BackendParity, SingularMatrixThrowsUnderBothBackends) {
  // Diagonal with one exactly-zero pivot and no sub-band fill to rescue it:
  // the pivot search over column 3 finds nothing, under any backend.
  BandedMatrix a(6, 2, 2);
  for (std::size_t i = 0; i < 6; ++i) a.at(i, i) = (i == 3) ? 0.0 : 1.0;
  const Vector b(6, 1.0);
  {
    const ScopedBackend scalar("scalar");
    EXPECT_THROW(BandedLu lu(a), std::runtime_error);
  }
  if (simd_supported()) {
    const ScopedBackend simd("simd");
    EXPECT_THROW(BandedLu lu(a), std::runtime_error);
  }
}

TEST(BackendParity, PanelUpdateMatchesUnfusedAxpysBitIdentical) {
  // panel_update's contract: identical bits to p successive axpys, on every
  // backend — so it is also bit-identical *across* backends. The cases carry
  // arbitrary non-monotone support lengths (including zero-length sources),
  // which is exactly where the simd kernels' masked tails live.
  const BackendOps& scalar = scalar_backend();
  const BackendOps* simd = simd_backend();
  for (const auto& s : kernel_golden_specs()) {
    const KernelCase c = make_kernel_case(s.seed ^ 0xC3C3u, s.n);
    const double* xs[KernelCase::kSources];
    for (std::size_t i = 0; i < KernelCase::kSources; ++i) {
      xs[i] = c.src[i].data();
    }
    Vector ref = c.y;
    for (std::size_t i = 0; i < KernelCase::kSources; ++i) {
      scalar.axpy(c.src_len[i], c.src_alpha[i], xs[i], ref.data());
    }
    for (const BackendOps* ops : {&scalar, simd}) {
      if (ops == nullptr) continue;
      Vector y = c.y;
      ops->panel_update(KernelCase::kSources, c.src_alpha.data(), xs,
                        c.src_len.data(), y.data());
      for (std::size_t i = 0; i < s.n; ++i) {
        ASSERT_EQ(hex_double(ref[i]), hex_double(y[i]))
            << c.name << " " << ops->name << " y[" << i << "]";
      }
    }
  }

  // Masked tails: sources ending at every remainder mod 32 (AVX-512 block)
  // and mod 8 (one register), in panels of p ∈ {1, 5, 32}, non-monotone.
  // Every row is -0.0 on entry, and every third row only ever receives
  // -0.0 products, so a lane a source does not cover that gets any add —
  // even of a masked-load zero — flips a sign bit. Source storage past its
  // length holds junk that must never be read. Rows past the longest
  // source hold a NaN sentinel that must come back with its payload.
  std::vector<std::size_t> tail_lens = {0, 1, 101, 102};
  for (std::size_t r = 0; r < 32; ++r) tail_lens.push_back(32 + r);
  const std::uint64_t sentinel = 0x7FF8DEADBEEF0001ull;
  const double sentinel_nan = std::bit_cast<double>(sentinel);
  util::Rng rng(0x7A11);
  for (const std::size_t p : {std::size_t{1}, std::size_t{5},
                              std::size_t{32}}) {
    for (std::size_t o = 0; o < tail_lens.size(); ++o) {
      std::vector<std::size_t> lens(p);
      std::vector<double> alpha(p);
      std::vector<Vector> src(p);
      std::vector<const double*> srcs(p);
      std::size_t max_len = 0;
      for (std::size_t i = 0; i < p; ++i) {
        lens[i] = tail_lens[(o + 7 * i) % tail_lens.size()];
        max_len = std::max(max_len, lens[i]);
        alpha[i] = rng.uniform(-2.0, 2.0);
        src[i].resize(lens[i] + 40);
        for (std::size_t r = 0; r < src[i].size(); ++r) {
          src[i][r] = r < lens[i] && r % 3 == 0
                          ? std::copysign(0.0, -alpha[i])  // product −0.0
                          : rng.uniform(-1.0, 1.0);
        }
        srcs[i] = src[i].data();
      }
      Vector y0(max_len + 40, -0.0);
      for (std::size_t r = max_len; r < y0.size(); ++r) y0[r] = sentinel_nan;
      Vector ref = y0;
      for (std::size_t i = 0; i < p; ++i) {
        scalar.axpy(lens[i], alpha[i], srcs[i], ref.data());
      }
      for (const BackendOps* ops :
           {&scalar, avx2_backend(), avx512_backend()}) {
        if (ops == nullptr) continue;
        Vector y = y0;
        ops->panel_update(p, alpha.data(), srcs.data(), lens.data(),
                          y.data());
        for (std::size_t r = 0; r < y.size(); ++r) {
          ASSERT_EQ(hex_double(ref[r]), hex_double(y[r]))
              << ops->name << " p=" << p << " offset " << o << " y[" << r
              << "] (max_len " << max_len << ")";
        }
        for (std::size_t r = max_len; r < y.size(); ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(y[r]), sentinel)
              << ops->name << " sentinel y[" << r << "]";
        }
      }
    }
  }
}

TEST(BackendParity, PanelFoldMatchesPerColumnFoldBitIdentical) {
  // Per fold s, panel_fold must equal the same backend's unit-stride
  // nmsub_fold bit for bit (that is how trsv_bwd stays deterministic); the
  // scalar-vs-simd difference is reduction reassociation, ULP-bounded.
  const BackendOps& scalar = scalar_backend();
  const BackendOps* simd = simd_backend();
  for (const auto& s : kernel_golden_specs()) {
    if (s.n > 10000) continue;  // same code paths as 9219; keep the loop tight
    const KernelCase c = make_kernel_case(s.seed ^ 0x3C3Cu, s.n);
    const std::size_t p = std::min(KernelCase::kSources, s.n);
    const std::size_t sa = std::max<std::size_t>(1, s.n / (2 * p));
    const std::size_t len_cap = s.n - (p - 1) * sa;
    const std::size_t len0 = std::max<std::size_t>(1, len_cap / 2);
    double out_scalar[KernelCase::kSources] = {};
    scalar.panel_fold(p, c.d.data(), c.src[1].data(), sa, len0, len_cap,
                      c.x.data(), out_scalar);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t len = std::min(len0 + i, len_cap);
      const double one = scalar.nmsub_fold(c.d[i], len,
                                           c.src[1].data() + i * sa, 1,
                                           c.x.data(), 1);
      ASSERT_EQ(hex_double(one), hex_double(out_scalar[i]))
          << c.name << " scalar fold " << i;
    }
    if (simd == nullptr) continue;
    double out_simd[KernelCase::kSources] = {};
    simd->panel_fold(p, c.d.data(), c.src[1].data(), sa, len0, len_cap,
                     c.x.data(), out_simd);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t len = std::min(len0 + i, len_cap);
      const double one = simd->nmsub_fold(c.d[i], len,
                                          c.src[1].data() + i * sa, 1,
                                          c.x.data(), 1);
      ASSERT_EQ(hex_double(one), hex_double(out_simd[i]))
          << c.name << " simd fold " << i;
      EXPECT_NEAR(out_scalar[i], out_simd[i],
                  16.0 * static_cast<double>(len + 1) * 2.22e-16 *
                      (std::abs(out_scalar[i]) + static_cast<double>(len) + 1))
          << c.name << " fold " << i;
    }
  }
}

TEST(BackendParity, FusedCgKernelsMatchUnfusedBitIdentical) {
  // cg_update ≡ axpy + axpy_dot and precond_dot ≡ (z = d∘r) + dot, bit for
  // bit on the *same* backend — the fusions may not change a single bit of
  // the CG iteration relative to the unfused kernel sequence they replaced.
  // search_dir_update is element-wise, hence also bit-identical *across*
  // backends.
  const BackendOps& scalar = scalar_backend();
  const BackendOps* simd = simd_backend();
  for (const auto& s : kernel_golden_specs()) {
    const KernelCase c = make_kernel_case(s.seed ^ 0x7E7Eu, s.n);
    const std::size_t n = s.n;
    for (const BackendOps* ops : {&scalar, simd}) {
      if (ops == nullptr) continue;
      // cg_update: x += α·p, r += (−α)·ap, returns r·r.
      Vector x_ref = c.x, r_ref = c.y;
      ops->axpy(n, c.alpha, c.src[0].data(), x_ref.data());
      const double rr_ref =
          ops->axpy_dot(n, -c.alpha, c.src[1].data(), r_ref.data());
      Vector x = c.x, r = c.y;
      const double rr = ops->cg_update(n, c.alpha, c.src[0].data(),
                                       c.src[1].data(), x.data(), r.data());
      ASSERT_EQ(hex_double(rr_ref), hex_double(rr)) << c.name << " "
                                                    << ops->name << " rr";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_double(x_ref[i]), hex_double(x[i]))
            << c.name << " " << ops->name << " x[" << i << "]";
        ASSERT_EQ(hex_double(r_ref[i]), hex_double(r[i]))
            << c.name << " " << ops->name << " r[" << i << "]";
      }
      // precond_dot: z = d∘r, returns r·z with the backend's dot tree.
      Vector z_ref(n);
      for (std::size_t i = 0; i < n; ++i) z_ref[i] = c.d[i] * c.y[i];
      const double rz_ref = ops->dot(n, c.y.data(), z_ref.data());
      Vector z(n);
      const double rz = ops->precond_dot(n, c.d.data(), c.y.data(), z.data());
      ASSERT_EQ(hex_double(rz_ref), hex_double(rz)) << c.name << " "
                                                    << ops->name << " rz";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_double(z_ref[i]), hex_double(z[i]))
            << c.name << " " << ops->name << " z[" << i << "]";
      }
    }
    // search_dir_update: p = z + β·p, element-wise multiply-then-add.
    Vector p_ref = c.x;
    for (std::size_t i = 0; i < n; ++i) p_ref[i] = c.y[i] + c.beta * p_ref[i];
    for (const BackendOps* ops : {&scalar, simd}) {
      if (ops == nullptr) continue;
      Vector p = c.x;
      ops->search_dir_update(n, c.beta, c.y.data(), p.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_double(p_ref[i]), hex_double(p[i]))
            << c.name << " " << ops->name << " p[" << i << "]";
      }
    }
  }
}

TEST(BackendParity, ColumnPreconditionerSweepsBitIdenticalDotUlpBounded) {
  // The column block-Jacobi apply runs plain element-wise slab sweeps, and
  // its coarse level is backend-independent code, so z must not move a bit
  // between backends; r·z goes through each backend's dot: ULP-bounded
  // scalar↔simd, and the same 8-lane tree on AVX2 and AVX-512.
  struct Case {
    std::uint64_t seed;
    std::size_t nx, ny;
    double lateral;
    bool coarse;  // the thermal stack's 5×5 × 2-group coarse level
  };
  for (const Case& k :
       {Case{81, 10, 10, 0.05, false}, Case{82, 16, 16, 0.02, false},
        Case{83, 7, 5, 0.3, false}, Case{84, 10, 10, 0.05, true},
        Case{85, 16, 16, 0.5, true}}) {
    const testing::LayeredCase c =
        testing::make_layered_case(k.seed, k.nx, k.ny, 9, k.lateral);
    CoarseMap map;
    for (std::size_t cell = 0; k.coarse && cell < c.cells; ++cell) {
      map.cell_aggregate.push_back(cell / k.nx * 5 / k.ny * 5 +
                                   cell % k.nx * 5 / k.nx);
    }
    for (std::size_t slab = 0; k.coarse && slab < 9; ++slab) {
      map.slab_group.push_back(slab == 8 ? 1 : 0);
    }
    const ColumnBlockSymbolic sym =
        ColumnBlockSymbolic::analyze(c.a, c.cells, c.slab_first, map);
    ASSERT_EQ(sym.coarse_size(), k.coarse ? 53u : 0u);
    ColumnBlockJacobi m;
    ASSERT_TRUE(m.factor(sym, c.a));
    const std::size_t n = c.a.size();

    const std::pair<const char*, bool> specs[] = {
        {"scalar", true},
        {"simd", simd_supported()},
        {"avx2", avx2_backend() != nullptr},
        {"avx512", avx512_backend() != nullptr}};
    std::map<std::string, std::pair<Vector, double>> out;
    for (const auto& [spec, available] : specs) {
      if (!available) continue;
      const ScopedBackend b(spec);
      Vector z(n);
      const double rz = m.apply(c.b.data(), z.data());
      out.emplace(spec, std::make_pair(std::move(z), rz));
    }
    const auto& [z_ref, rz_ref] = out.at("scalar");
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) mass += std::abs(c.b[i] * z_ref[i]);
    const double bound =
        16.0 * static_cast<double>(n + 1) * 2.22e-16 * (mass + 1.0);
    for (const auto& [spec, result] : out) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_double(z_ref[i]), hex_double(result.first[i]))
            << spec << " seed " << k.seed << " z[" << i << "]";
      }
      EXPECT_NEAR(rz_ref, result.second, bound) << spec << " seed " << k.seed;
    }
    if (out.count("avx2") != 0 && out.count("avx512") != 0) {
      EXPECT_EQ(hex_double(out.at("avx2").second),
                hex_double(out.at("avx512").second))
          << "seed " << k.seed;
    }
  }
}

TEST(BackendParity, SparseMatVecRowsBitIdenticalDotIsBackendDot) {
  // SELL-8 rows are element-wise: every backend must reproduce a sequential
  // CSR-order row loop bit for bit. The fused p·Ap must be exactly the
  // active backend's dot of the y it wrote (so AVX2 ≡ AVX-512), and the
  // padding lanes must never be loaded from x: with NaN in every column no
  // stored entry references (column 0, the padding column, among them),
  // y stays finite.
  const std::pair<const char*, bool> specs[] = {
      {"scalar", true},
      {"simd", simd_supported()},
      {"avx2", avx2_backend() != nullptr},
      {"avx512", avx512_backend() != nullptr}};
  for (const std::size_t n : {1, 7, 8, 9, 64, 903}) {
    const SparsePatternCase c = make_sparse_pattern_case(0x5E11 + n, n);
    util::Rng rng(0xB0 + n);
    Vector x(n), b(n), x_nan(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
      x_nan[i] = c.referenced[i] ? x[i] : std::nan("");
    }
    Vector y_ref(n);
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (const auto& [col, v] : c.rows[r]) acc += v * x[col];
      y_ref[r] = acc;
    }
    std::map<std::string, std::string> dots;
    for (const auto& [spec, available] : specs) {
      if (!available) continue;
      const ScopedBackend scoped(spec);
      const std::string tag = std::string(spec) + " n=" + std::to_string(n);
      Vector y;
      const double dot = c.a.multiply_dot(x, y);
      ASSERT_EQ(y.size(), n);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(hex_double(y_ref[r]), hex_double(y[r])) << tag << " y[" << r
                                                          << "]";
      }
      ASSERT_EQ(hex_double(backend().dot(n, x.data(), y.data())),
                hex_double(dot))
          << tag;
      dots[spec] = hex_double(dot);

      const Vector ax = c.a.multiply(x);
      Vector r;
      c.a.residual_into(b, x, r);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hex_double(y_ref[i]), hex_double(ax[i])) << tag;
        ASSERT_EQ(hex_double(b[i] - ax[i]), hex_double(r[i]))
            << tag << " r[" << i << "]";
      }

      Vector y_nan;
      (void)c.a.multiply_dot(x_nan, y_nan);
      c.a.residual_into(b, x_nan, r);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(std::isfinite(y_nan[i])) << tag << " y[" << i << "]";
        ASSERT_EQ(hex_double(y_ref[i]), hex_double(y_nan[i])) << tag;
        ASSERT_TRUE(std::isfinite(r[i])) << tag << " r[" << i << "]";
      }
    }
    if (dots.count("avx2") != 0 && dots.count("avx512") != 0) {
      EXPECT_EQ(dots.at("avx2"), dots.at("avx512")) << "n=" << n;
    }
  }
}

TEST(BackendParity, ThermalMatVecMatchesCsrRowLoopBitForBit) {
  // The thermal stack's own pattern, whose slots read x as contiguous
  // windows: multiply_dot and residual_into must reproduce a CSR row loop
  // over the stored entries (for_each_entry's order: rows ascending,
  // columns ascending) bit for bit under every backend, on the static
  // system and on a stamped operating point, at 6×6, 10×10 and 32×32. The
  // pattern has edge slots at both ends — windows that start before
  // column 0 or end past column n − 1, which the simd kernels gather — and
  // the test checks that it does.
  const std::pair<const char*, bool> specs[] = {
      {"scalar", true},
      {"simd", simd_supported()},
      {"avx2", avx2_backend() != nullptr},
      {"avx512", avx512_backend() != nullptr}};
  const floorplan::Floorplan fp = floorplan::make_ev6_floorplan();
  for (const std::size_t nx : {6, 10, 32}) {
    const thermal::ThermalModel model(package::PackageConfig::paper_default(),
                                      fp, nx, nx);
    const std::size_t n = model.layout().node_count();
    const std::size_t cells = model.layout().cells_per_layer();
    util::Rng rng(0xED6E + nx);
    Vector dynamic(cells);
    for (double& p : dynamic) p = rng.uniform(0.0, 0.5);
    std::vector<power::TaylorCoefficients> taylor(cells);
    for (auto& t : taylor) t = {rng.uniform(0.0, 0.02), 0.1, 350.0};
    const thermal::IncrementalAssembler assembler(model, dynamic);
    thermal::CsrSystem stamped;
    assembler.assemble_csr(0.6 * model.config().fan.max_speed,
                           Vector(cells, 0.4 * model.config().tec.max_current),
                           taylor, stamped);

    Vector x(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0) * (i % 3 == 0 ? 400.0 : 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    const std::string grid = std::to_string(nx) + "x" + std::to_string(nx);
    const SparseMatrix* systems[] = {&model.static_csr_system().matrix,
                                     &stamped.matrix};
    for (const SparseMatrix* a : systems) {
      ASSERT_EQ(a->size(), n);
      Vector y_ref(n, 0.0);
      std::size_t low_edge = 0;
      std::size_t high_edge = 0;
      a->for_each_entry([&](std::size_t r, std::size_t c, std::size_t p) {
        y_ref[r] += a->values()[p] * x[c];
        // The column of lane 0 in this entry's slot.
        const auto col0 = static_cast<std::ptrdiff_t>(r / 8 * 8 + c) -
                          static_cast<std::ptrdiff_t>(r);
        if (col0 < 0) ++low_edge;
        if (col0 + 8 > static_cast<std::ptrdiff_t>(n)) ++high_edge;
      });
      EXPECT_GT(low_edge, 0u) << grid;
      EXPECT_GT(high_edge, 0u) << grid;

      std::map<std::string, std::string> dots;
      for (const auto& [spec, available] : specs) {
        if (!available) continue;
        const ScopedBackend scoped(spec);
        const std::string tag = std::string(spec) + " " + grid;
        Vector y;
        const double dot = a->multiply_dot(x, y);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(hex_double(y_ref[r]), hex_double(y[r]))
              << tag << " y[" << r << "]";
        }
        ASSERT_EQ(hex_double(backend().dot(n, x.data(), y.data())),
                  hex_double(dot))
            << tag;
        dots[spec] = hex_double(dot);
        Vector res;
        a->residual_into(b, x, res);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(hex_double(b[r] - y_ref[r]), hex_double(res[r]))
              << tag << " r[" << r << "]";
        }
      }
      if (dots.count("avx2") != 0 && dots.count("avx512") != 0) {
        EXPECT_EQ(dots.at("avx2"), dots.at("avx512")) << grid;
      }
    }
  }
}

TEST(BackendParity, TrsvForwardBitIdenticalBackwardUlpClose) {
  // trsv_fwd is column-oriented (divide, then element-wise axpy) — identical
  // bits on every backend. trsv_bwd folds rows, so scalar vs simd differ by
  // reduction order only; the simd 8-row blocked form must still match
  // scalar to high relative accuracy on well-conditioned factors. Sizes
  // cover k < 8 (per-row fallback), k ≥ 8 (blocked panel_fold path), and n
  // not a multiple of the block size.
  const BackendOps* simd = simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "no simd backend on this machine";
  const BackendOps& scalar = scalar_backend();
  const struct { std::size_t n, k; } sizes[] = {
      {5, 2}, {64, 7}, {65, 8}, {257, 33}, {903, 101},
  };
  std::uint64_t seed = 501;
  for (const auto& sz : sizes) {
    const std::vector<double> f = make_band_factor(seed, sz.n, sz.k);
    const VectorCase rhs = make_vector_case(seed ^ 0xF0F0u, sz.n);
    ++seed;
    Vector xs = rhs.x, xv = rhs.x;
    scalar.trsv_fwd(sz.n, sz.k, f.data(), xs.data());
    simd->trsv_fwd(sz.n, sz.k, f.data(), xv.data());
    for (std::size_t i = 0; i < sz.n; ++i) {
      ASSERT_EQ(hex_double(xs[i]), hex_double(xv[i]))
          << "fwd n=" << sz.n << " k=" << sz.k << " x[" << i << "]";
    }
    scalar.trsv_bwd(sz.n, sz.k, f.data(), xs.data());
    simd->trsv_bwd(sz.n, sz.k, f.data(), xv.data());
    for (std::size_t i = 0; i < sz.n; ++i) {
      EXPECT_NEAR(xs[i], xv[i], 1e-11 * (std::abs(xs[i]) + 1.0))
          << "bwd n=" << sz.n << " k=" << sz.k << " x[" << i << "]";
    }
    // Determinism: repeated simd runs are bit-identical.
    Vector again = rhs.x;
    simd->trsv_fwd(sz.n, sz.k, f.data(), again.data());
    simd->trsv_bwd(sz.n, sz.k, f.data(), again.data());
    for (std::size_t i = 0; i < sz.n; ++i) {
      ASSERT_EQ(hex_double(xv[i]), hex_double(again[i]))
          << "repeat n=" << sz.n << " k=" << sz.k << " x[" << i << "]";
    }
  }
}

TEST(BackendParity, GridSizeSweepSolvesStableAndDeterministic) {
  // SPD systems at the exact (n, bandwidth) shapes the thermal module emits
  // for 10×10, 16×16, and 32×32 floorplans (n = 9·cells + 3, k = cells + 1).
  // The panel kernels must stay backward-stable, cross-backend ULP-close,
  // and bit-deterministic at the sizes they were built for — not just on
  // the small golden cases.
  const struct { std::size_t n, k; } sizes[] = {
      {903, 101}, {2307, 257}, {9219, 1025},
  };
  std::uint64_t seed = 901;
  for (const auto& sz : sizes) {
    const BandedCase c = make_spd_case(seed++, sz.n, sz.k);
    Vector xs, xv;
    {
      const ScopedBackend b("scalar");
      xs = factor_cholesky(c.a).solve(c.b);
    }
    EXPECT_LE(residual_inf(c.a, xs, c.b), stability_bound(c, xs)) << c.name;
    if (!simd_supported()) continue;
    {
      const ScopedBackend b("simd");
      const BandedCholeskyNumeric chol = factor_cholesky(c.a);
      xv = chol.solve(c.b);
      // Bit-determinism of the full factor+solve pipeline at scale.
      const Vector x2 = factor_cholesky(c.a).solve(c.b);
      for (std::size_t i = 0; i < sz.n; ++i) {
        ASSERT_EQ(hex_double(xv[i]), hex_double(x2[i]))
            << c.name << " repeat x[" << i << "]";
      }
    }
    EXPECT_LE(residual_inf(c.a, xv, c.b), stability_bound(c, xv)) << c.name;
    for (std::size_t i = 0; i < sz.n; ++i) {
      EXPECT_NEAR(xs[i], xv[i], 1e-9 * (std::abs(xs[i]) + 1.0))
          << c.name << " x[" << i << "]";
    }
  }
}

// --------------------------------------------------------------------------
// 3. Determinism: per-backend repeatability, thread independence, and
//    AVX2 == AVX-512
// --------------------------------------------------------------------------

std::vector<std::string> solve_fingerprint() {
  std::vector<std::string> fp;
  for (const auto& s : lu_golden_specs()) {
    const BandedCase c = make_banded_case(s.seed, s.n, s.kl, s.ku, s.boost);
    for (const double v : BandedLu(c.a).solve(c.b)) fp.push_back(hex_double(v));
  }
  for (const auto& s : spd_golden_specs()) {
    const BandedCase c = make_spd_case(s.seed, s.n, s.k);
    for (const double v : factor_cholesky(c.a).solve(c.b)) {
      fp.push_back(hex_double(v));
    }
  }
  return fp;
}

TEST(BackendDeterminism, RepeatedRunsBitIdenticalPerBackend) {
  for (const char* spec : {"scalar", "simd"}) {
    if (std::string(spec) == "simd" && !simd_supported()) continue;
    const ScopedBackend b(spec);
    EXPECT_EQ(backend_golden_lines(), backend_golden_lines()) << spec;
  }
}

TEST(BackendDeterminism, ConcurrentThreadsBitIdenticalPerBackend) {
  for (const char* spec : {"scalar", "simd"}) {
    if (std::string(spec) == "simd" && !simd_supported()) continue;
    const ScopedBackend b(spec);
    const std::vector<std::string> reference = solve_fingerprint();
    std::vector<std::vector<std::string>> got(4);
    std::vector<std::thread> workers;
    workers.reserve(got.size());
    for (auto& slot : got) {
      workers.emplace_back([&slot] { slot = solve_fingerprint(); });
    }
    for (auto& w : workers) w.join();
    for (const auto& slot : got) EXPECT_EQ(slot, reference) << spec;
  }
}

TEST(BackendDeterminism, Avx2AndAvx512BitIdentical) {
  if (avx2_backend() == nullptr || avx512_backend() == nullptr) {
    GTEST_SKIP() << "machine lacks one of the simd flavors";
  }
  // backend_golden_lines covers every kernel, factor+trsv at the 32×32
  // bandwidth included: both flavors compile one kernel source over the
  // same 8-lane pack, so the whole surface — reductions included — must
  // agree bit for bit.
  std::vector<GoldenLine> lines2, lines512;
  {
    const ScopedBackend b("avx2");
    ASSERT_STREQ(backend().name, "simd-avx2");
    lines2 = backend_golden_lines();
  }
  {
    const ScopedBackend b("avx512");
    ASSERT_STREQ(backend().name, "simd-avx512");
    lines512 = backend_golden_lines();
  }
  EXPECT_EQ(lines2, lines512);
}

TEST(BackendDeterminism, InstallResolvesSpecs) {
  const ScopedBackend restore("auto");  // restores env selection on exit
  EXPECT_EQ(install_backend("scalar").kind, BackendKind::kScalar);
  const BackendOps& table = install_backend("auto");
  if (simd_supported()) {
    EXPECT_EQ(table.kind, BackendKind::kSimd);
  } else {
    EXPECT_EQ(table.kind, BackendKind::kScalar);
  }
  // Unrecognized specs degrade to auto (with a logged warning), never crash.
  EXPECT_EQ(install_backend("quantum").kind, table.kind);
}

}  // namespace
}  // namespace oftec::la
