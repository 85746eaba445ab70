// Runtime-dispatched kernel backend for the dense, banded and sparse hot loops.
//
// Every solver in the library funnels its inner arithmetic through a handful
// of BLAS-1-shaped kernels: contiguous axpy/dot (CG, the banded LU forward
// substitution and trailing update after the column-major storage change),
// the fused axpy_dot residual update, strided negative-multiply-subtract
// folds (back substitution, both Cholesky factorizations and solves), and
// the whole CG iteration: the SELL-8 sparse mat-vec with its fused p·Ap and
// the column preconditioner's slab sweeps. This header is the seam that lets
// those call sites pick an implementation at runtime:
//
//   scalar — the reference. Plain sequential C++ loops, bit-identical to the
//            seed implementations they replaced (enforced against checked-in
//            goldens by tests/la/test_backend_parity.cpp). Always available.
//   simd   — AVX2 or AVX-512 kernels: one kernel source
//            (backend_simd_kernels.inc) written over an 8-lane pack and
//            compiled once per instruction set (backend_simd.cpp).
//            Element-wise kernels (axpy, scale, the column sweeps, and the
//            rows of the sparse mat-vec) are bit-identical to scalar (same
//            multiply/add per element, no FMA contraction). Reduction
//            kernels (dot, axpy_dot, nmsub_fold, max_abs_diff, the
//            mat-vec's fused dot) accumulate in a fixed 8-lane interleave
//            combined pairwise, so they are ULP-close to scalar and — the
//            two instruction sets running the same source — bit-identical
//            between AVX2 and AVX-512 by construction. The simd backend is
//            therefore deterministic: same inputs give the same bits on
//            every machine that runs it, at any thread count, and its bits
//            are pinned by tests/la/goldens/la_simd.txt.
//
// Selection (first call to backend(), or an explicit install_backend()):
//   OFTEC_LA_BACKEND = scalar | simd | auto (default) | avx2 | avx512
// "auto" resolves to simd when the CPU supports AVX2, else scalar. An
// explicit "simd"/"avx2"/"avx512" on unsupported hardware degrades to the
// widest available implementation with a logged warning rather than
// failing — and the fault site "la.backend.simd_unavailable" injects that
// degradation deterministically for chaos tests (docs/robustness.md).
//
// Bit-identity policy (docs/solver.md "Kernel backends"):
//   - scalar: bit-identical to the seed solvers, forever.
//   - simd:   ULP-bounded against scalar per kernel call; deterministic for
//             a fixed backend across runs, machines, and thread counts.
//   - Paths that compare two runs of *this process* (batched-vs-serial,
//     engine-vs-reference, serve-vs-direct) stay bit-identical under either
//     backend, because both sides go through the same kernels.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oftec::la {

enum class BackendKind { kScalar, kSimd };

/// SELL-8 storage as the mat-vec kernel reads it (built by la::SparseMatrix;
/// see la/sparse.h). Slice s holds rows 8s … 8s+7 and slots
/// slice_start[s] … slice_start[s+1] − 1, in ascending offset order. Slot k
/// is the 8 values at val[8k + l], lane l being row 8s + l at column
/// 8s + l + offset[k]; lane l is live when bit l of mask[k] is set. Dead
/// lanes (value 0) are never loaded from x nor multiplied.
struct Sell8View {
  std::size_t n = 0;                         ///< rows = columns
  const std::size_t* slice_start = nullptr;  ///< ceil(n/8) + 1 entries
  const std::int32_t* offset = nullptr;      ///< one per slot
  const std::uint8_t* mask = nullptr;        ///< one per slot
  const double* val = nullptr;               ///< 8 per slot
};

/// Kernel table. All pointers are non-null and callable from any thread.
struct BackendOps {
  const char* name = "scalar";  ///< "scalar", "simd-avx2", "simd-avx512"
  BackendKind kind = BackendKind::kScalar;

  /// y[i] += alpha * x[i] over contiguous spans (no aliasing).
  void (*axpy)(std::size_t n, double alpha, const double* x, double* y);
  /// x[i] *= alpha.
  void (*scale)(std::size_t n, double alpha, double* x);
  /// Σ x[i]·y[i].
  double (*dot)(std::size_t n, const double* x, const double* y);
  /// Fused y[i] += alpha·x[i]; returns Σ y[i]² of the updated y.
  double (*axpy_dot)(std::size_t n, double alpha, const double* x, double* y);
  /// max_i |x[i] − y[i]| (finite inputs; NaN handling is backend-specific).
  double (*max_abs_diff)(std::size_t n, const double* x, const double* y);
  /// Strided negative-multiply-subtract fold:
  ///   init − Σ_{i<n} a[i·sa] · x[i·sx]
  /// computed as a sequential fused fold by the scalar backend (the exact
  /// substitution-loop arithmetic of the seed solvers) and as an 8-lane tree
  /// by the simd backend. Strides are in elements and may be negative.
  double (*nmsub_fold)(double init, std::size_t n, const double* a,
                       std::ptrdiff_t sa, const double* x, std::ptrdiff_t sx);

  // --- Panel primitives (PR 10). The factorizations feed whole multi-column
  // --- updates through one call so the destination column stays in
  // --- registers while contiguous source columns stream past it.

  /// Multi-source fused axpy ("panel update"):
  ///   for s = 0..p−1:  y[r] += alpha[s] · x[s][r]   for r < len[s],
  /// where every source starts at the same destination element. For each
  /// destination element the sources apply in ascending s, so the result is
  /// bit-identical to p successive axpy calls in s order — element-wise on
  /// every backend, hence bit-identical between scalar and simd. Sources
  /// must not alias y; len[s] may be 0 (x[s] is then never dereferenced).
  void (*panel_update)(std::size_t p, const double* alpha,
                       const double* const* x, const std::size_t* len,
                       double* y);

  /// p independent negative-multiply-subtract folds of regularly strided,
  /// contiguous source columns against one shared x:
  ///   out[s] = init[s] − Σ_{i < len_s} a_s[i] · x[i],
  /// with a_s = a0 + s·sa and len_s = min(len0 + s, len_cap). Each fold uses
  /// nmsub_fold's arithmetic (scalar: sequential seed fold; simd: the fixed
  /// 8-lane tree), so out[s] is bit-identical to p separate nmsub_fold calls
  /// with unit strides.
  void (*panel_fold)(std::size_t p, const double* init, const double* a0,
                     std::ptrdiff_t sa, std::size_t len0, std::size_t len_cap,
                     const double* x, double* out);

  /// Fused forward substitution L y = b over a column-major band Cholesky
  /// factor (column j is `factor + j·(k+1)`, diagonal first, rows
  /// j..min(n−1, j+k)). In place: x holds b on entry, y on return. A
  /// column-oriented sequence of axpys plus one division per diagonal —
  /// element-wise, so bit-identical across backends (and to the seed's
  /// row-fold forward substitution; see docs/solver.md).
  void (*trsv_fwd)(std::size_t n, std::size_t k, const double* factor,
                   double* x);

  /// Fused backward substitution Lᵀ x = y over the same layout. Row folds
  /// over contiguous factor columns: scalar folds sequentially (seed bits);
  /// simd blocks 8 rows and folds their out-of-block contributions with the
  /// 8-lane tree (deterministic, AVX2 ≡ AVX-512, ULP-bounded vs scalar).
  void (*trsv_bwd)(std::size_t n, std::size_t k, const double* factor,
                   double* x);

  // --- Fused CG-iteration kernels (PR 10): one pass per vector touch.

  /// Fused CG iterate/residual update: x[i] += alpha·p[i];
  /// r[i] += (−alpha)·ap[i]; returns Σ r[i]² of the updated r. The x update
  /// is element-wise; the r/Σ part is exactly axpy_dot(−alpha, ap, r), so
  /// the result is bit-identical to the unfused axpy + axpy_dot pair on the
  /// same backend.
  double (*cg_update)(std::size_t n, double alpha, const double* p,
                      const double* ap, double* x, double* r);

  /// Fused Jacobi preconditioner apply + dot: z[i] = d[i]·r[i]; returns
  /// Σ r[i]·z[i]. Bit-identical to the unfused element-wise product followed
  /// by dot(r, z) on the same backend (same 8-lane tree in simd).
  double (*precond_dot)(std::size_t n, const double* d, const double* r,
                        double* z);

  /// Search-direction refresh p[i] = z[i] + beta·p[i] (element-wise;
  /// bit-identical across backends).
  void (*search_dir_update)(std::size_t n, double beta, const double* z,
                            double* p);

  // --- Sparse mat-vec and column-preconditioner sweeps: the rest of the
  // --- CG iteration.

  /// SELL-8 mat-vec y = A·x, or the residual y = b − A·x when b is non-null
  /// (x, b, y hold a.n doubles; y aliases neither). Every row sums its live
  /// entries from +0.0 in slot (= ascending column) order, multiply then
  /// add, so y is element-wise: bit-identical across backends and to a
  /// sequential CSR row loop. Returns Σ x[i]·y[i] over the y written,
  /// exactly dot(a.n, x, y) of the same table — lane l of every slice is a
  /// row ≡ l (mod 8), the lane the simd dot accumulates that row in, so the
  /// dot rides along in the same pass. Callers that need no dot ignore it.
  double (*sell8_matvec)(const Sell8View& a, const double* x, const double* b,
                         double* y);

  /// Column preconditioner forward sweep z[i] = r[i] − l[i]·w[i]
  /// (element-wise; bit-identical across backends). z aliases no input.
  void (*column_sweep_fwd)(std::size_t n, const double* r, const double* l,
                           const double* w, double* z);

  /// Column preconditioner backward sweep z[i] = z[i]·d[i] − l[i]·w[i], in
  /// place (element-wise; bit-identical across backends). z aliases no
  /// other argument.
  void (*column_sweep_bwd)(std::size_t n, const double* d, const double* l,
                           const double* w, double* z);
};

/// The active backend. Resolved from OFTEC_LA_BACKEND (else "auto") on first
/// use, then constant until install_backend() is called. Never null.
[[nodiscard]] const BackendOps& backend() noexcept;

/// True when the CPU can run the AVX2 simd kernels (AVX2; the kernels use no
/// FMA so the FMA flag is not required).
[[nodiscard]] bool simd_supported() noexcept;
/// True when the AVX-512 flavor is additionally available (AVX-512F).
[[nodiscard]] bool avx512_supported() noexcept;

/// Resolve `spec` ("scalar" | "simd" | "auto" | "avx2" | "avx512"; null or
/// unrecognized → "auto" with a logged warning) and install the result as
/// the active backend. Returns the installed table. Intended for startup,
/// tests, and benches — installation is atomic, but swapping backends while
/// other threads are inside kernels mixes implementations between calls
/// (each individual call is internally consistent).
const BackendOps& install_backend(const char* spec);

/// The scalar reference table (always available; used by differential tests
/// regardless of the active backend).
[[nodiscard]] const BackendOps& scalar_backend() noexcept;

/// The simd table for the current machine, or null when !simd_supported().
/// Exposed so the parity suite can compare tables directly.
[[nodiscard]] const BackendOps* simd_backend() noexcept;

/// The specific AVX2 / AVX-512 tables when supported (null otherwise); the
/// determinism tests assert the two produce identical bits.
[[nodiscard]] const BackendOps* avx2_backend() noexcept;
[[nodiscard]] const BackendOps* avx512_backend() noexcept;

}  // namespace oftec::la
