// AVX2 / AVX-512 kernel tables for the la::Backend seam.
//
// The build stays at the baseline -march (no global -mavx2), so every
// vector function here carries a target attribute and is only ever called
// after a __builtin_cpu_supports check — the binary runs unchanged on
// pre-AVX2 machines, where dispatch resolves to scalar.
//
// Determinism design (see backend.h):
//   * Element-wise kernels (axpy, scale) do multiply-then-add per element —
//     explicit _mm*_mul_pd/_mm*_add_pd, never FMA — so they are bit-identical
//     to the scalar reference.
//   * Reductions use a FIXED 8-logical-lane accumulator layout: lane l
//     accumulates elements i ≡ l (mod 8) in index order. AVX2 realizes the
//     lanes as two __m256d, AVX-512 as one __m512d; both spill the 8 lane
//     totals and combine them with the same scalar tree
//         ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))
//     then fold the tail (< 8 elements) sequentially. Hence avx2 and avx512
//     return identical bits for identical inputs, and a fixed backend is
//     deterministic across runs and thread counts. For n < 8 the whole input
//     is tail, so reductions degenerate to the scalar result exactly.
//   * The SELL-8 mat-vec is element-wise per row (each lane is one row,
//     summed from +0.0 in slot order, dead lanes masked off), and its fused
//     dot is the same 8-lane tree: a slice's lane l is a row ≡ l (mod 8).
//   * max_abs_diff assumes finite inputs (NaN handling follows _mm_max_pd
//     operand order, which differs from std::max; the library never feeds
//     NaNs here — solvers reject non-finite state upstream).
#include "la/backend_detail.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace oftec::la::detail {

#if defined(__x86_64__) || defined(__i386__)

namespace {

/// Scalar tree-combine of the 8 lane totals — shared by both ISA flavors so
/// their reduction results are bit-identical by construction.
inline double combine8(const double lanes[8]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

inline double combine8_max(const double lanes[8]) {
  double m = lanes[0];
  for (int l = 1; l < 8; ++l) {
    if (lanes[l] > m) m = lanes[l];
  }
  return m;
}

// ---------------------------------------------------------------------------
// AVX2
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) __m256d load4_strided(const double* p,
                                                      std::ptrdiff_t s) {
  if (s == 1) return _mm256_loadu_pd(p);
  return _mm256_set_pd(p[3 * s], p[2 * s], p[s], p[0]);
}

__attribute__((target("avx2"))) void avx2_axpy(std::size_t n, double alpha,
                                               const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void avx2_scale(std::size_t n, double alpha,
                                                double* x) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) double avx2_dot(std::size_t n, const double* x,
                                                const double* y) {
  __m256d acc_lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes 4..7
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                                 _mm256_loadu_pd(y + i)));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                                 _mm256_loadu_pd(y + i + 4)));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = combine8(lanes);
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("avx2"))) double avx2_axpy_dot(std::size_t n,
                                                     double alpha,
                                                     const double* x,
                                                     double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d vy0 = _mm256_loadu_pd(y + i);
    vy0 = _mm256_add_pd(vy0, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, vy0);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(vy0, vy0));
    __m256d vy1 = _mm256_loadu_pd(y + i + 4);
    vy1 = _mm256_add_pd(vy1, _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4)));
    _mm256_storeu_pd(y + i + 4, vy1);
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(vy1, vy1));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = combine8(lanes);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    acc += y[i] * y[i];
  }
  return acc;
}

__attribute__((target("avx2"))) double avx2_max_abs_diff(std::size_t n,
                                                         const double* x,
                                                         const double* y) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d m_lo = _mm256_setzero_pd();
  __m256d m_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_andnot_pd(
        sign_mask,
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    m_lo = _mm256_max_pd(m_lo, d0);
    const __m256d d1 = _mm256_andnot_pd(
        sign_mask,
        _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4)));
    m_hi = _mm256_max_pd(m_hi, d1);
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, m_lo);
  _mm256_store_pd(lanes + 4, m_hi);
  double m = combine8_max(lanes);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    const double a = d < 0.0 ? -d : d;
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx2"))) double avx2_nmsub_fold(double init,
                                                       std::size_t n,
                                                       const double* a,
                                                       std::ptrdiff_t sa,
                                                       const double* x,
                                                       std::ptrdiff_t sx) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  const double* pa = a;
  const double* px = x;
  for (; i + 8 <= n; i += 8) {
    acc_lo = _mm256_sub_pd(
        acc_lo, _mm256_mul_pd(load4_strided(pa, sa), load4_strided(px, sx)));
    acc_hi = _mm256_sub_pd(
        acc_hi, _mm256_mul_pd(load4_strided(pa + 4 * sa, sa),
                              load4_strided(px + 4 * sx, sx)));
    pa += 8 * sa;
    px += 8 * sx;
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = init + combine8(lanes);
  for (; i < n; ++i) {
    acc -= *pa * *px;
    pa += sa;
    px += sx;
  }
  return acc;
}

// Multi-source fused axpy. A 16-row destination block rides in four
// registers while the sources stream past it. A source whose span ends
// inside the block is applied with lane masks: maskload zero-fills (and never
// touches) the rows past its end, and a blend keeps those destination lanes'
// bits, so per element this is exactly the scalar multiply-then-add in
// ascending s order — bit-identical to the reference. The last, partial
// block loads and stores y under the same masks, so no scalar tail remains.
__attribute__((target("avx2"))) void avx2_panel_update(
    std::size_t p, const double* alpha, const double* const* x,
    const std::size_t* len, double* y) {
  std::size_t max_len = 0;
  for (std::size_t s = 0; s < p; ++s) max_len = std::max(max_len, len[s]);
  const __m256i idx0 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i idx1 = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i idx2 = _mm256_setr_epi64x(8, 9, 10, 11);
  const __m256i idx3 = _mm256_setr_epi64x(12, 13, 14, 15);
  for (std::size_t r0 = 0; r0 < max_len; r0 += 16) {
    double* yb = y + r0;
    const bool whole = r0 + 16 <= max_len;
    // Lane i of register q is live when 4q + i < rows.
    const __m256i rows = _mm256_set1_epi64x(
        static_cast<long long>(whole ? 16 : max_len - r0));
    const __m256i my0 = _mm256_cmpgt_epi64(rows, idx0);
    const __m256i my1 = _mm256_cmpgt_epi64(rows, idx1);
    const __m256i my2 = _mm256_cmpgt_epi64(rows, idx2);
    const __m256i my3 = _mm256_cmpgt_epi64(rows, idx3);
    __m256d acc0, acc1, acc2, acc3;
    if (whole) {
      acc0 = _mm256_loadu_pd(yb);
      acc1 = _mm256_loadu_pd(yb + 4);
      acc2 = _mm256_loadu_pd(yb + 8);
      acc3 = _mm256_loadu_pd(yb + 12);
    } else {
      acc0 = _mm256_maskload_pd(yb, my0);
      acc1 = _mm256_maskload_pd(yb + 4, my1);
      acc2 = _mm256_maskload_pd(yb + 8, my2);
      acc3 = _mm256_maskload_pd(yb + 12, my3);
    }
    for (std::size_t s = 0; s < p; ++s) {
      const std::size_t ls = len[s];
      if (ls <= r0) continue;
      const double* xs = x[s] + r0;
      const __m256d va = _mm256_set1_pd(alpha[s]);
      if (ls >= r0 + 16) {
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(xs)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(xs + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(xs + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(xs + 12)));
        continue;
      }
      const __m256i live = _mm256_set1_epi64x(static_cast<long long>(ls - r0));
      const __m256i m0 = _mm256_cmpgt_epi64(live, idx0);
      const __m256i m1 = _mm256_cmpgt_epi64(live, idx1);
      const __m256i m2 = _mm256_cmpgt_epi64(live, idx2);
      const __m256i m3 = _mm256_cmpgt_epi64(live, idx3);
      acc0 = _mm256_blendv_pd(
          acc0,
          _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_maskload_pd(xs, m0))),
          _mm256_castsi256_pd(m0));
      acc1 = _mm256_blendv_pd(
          acc1,
          _mm256_add_pd(acc1,
                        _mm256_mul_pd(va, _mm256_maskload_pd(xs + 4, m1))),
          _mm256_castsi256_pd(m1));
      acc2 = _mm256_blendv_pd(
          acc2,
          _mm256_add_pd(acc2,
                        _mm256_mul_pd(va, _mm256_maskload_pd(xs + 8, m2))),
          _mm256_castsi256_pd(m2));
      acc3 = _mm256_blendv_pd(
          acc3,
          _mm256_add_pd(acc3,
                        _mm256_mul_pd(va, _mm256_maskload_pd(xs + 12, m3))),
          _mm256_castsi256_pd(m3));
    }
    if (whole) {
      _mm256_storeu_pd(yb, acc0);
      _mm256_storeu_pd(yb + 4, acc1);
      _mm256_storeu_pd(yb + 8, acc2);
      _mm256_storeu_pd(yb + 12, acc3);
    } else {
      _mm256_maskstore_pd(yb, my0, acc0);
      _mm256_maskstore_pd(yb + 4, my1, acc1);
      _mm256_maskstore_pd(yb + 8, my2, acc2);
      _mm256_maskstore_pd(yb + 12, my3, acc3);
    }
  }
}

/// Contiguous nmsub fold — the unit-stride core of avx2_nmsub_fold
/// (bit-identical to it for sa == sx == 1).
__attribute__((target("avx2"))) double avx2_fold1(double init, std::size_t n,
                                                  const double* a,
                                                  const double* x) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_lo = _mm256_sub_pd(
        acc_lo, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(x + i)));
    acc_hi = _mm256_sub_pd(
        acc_hi, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                              _mm256_loadu_pd(x + i + 4)));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = init + combine8(lanes);
  for (; i < n; ++i) acc -= a[i] * x[i];
  return acc;
}

__attribute__((target("avx2"))) void avx2_panel_fold(
    std::size_t p, const double* init, const double* a0, std::ptrdiff_t sa,
    std::size_t len0, std::size_t len_cap, const double* x, double* out) {
  for (std::size_t s = 0; s < p; ++s) {
    out[s] = avx2_fold1(init[s], std::min(len0 + s, len_cap), a0 + s * sa, x);
  }
}

__attribute__((target("avx2"))) void avx2_trsv_fwd(std::size_t n,
                                                   std::size_t k,
                                                   const double* factor,
                                                   double* x) {
  const std::size_t stride = k + 1;
  for (std::size_t j = 0; j < n; ++j) {
    const double* colj = factor + j * stride;
    const double xj = x[j] / colj[0];
    x[j] = xj;
    avx2_axpy(std::min(k, n - 1 - j), -xj, colj + 1, x + j + 1);
  }
}

__attribute__((target("avx2"))) void avx2_trsv_bwd(std::size_t n,
                                                   std::size_t k,
                                                   const double* factor,
                                                   double* x) {
  const std::size_t stride = k + 1;
  if (k < 8) {
    // Narrow band: per-row contiguous folds (a block's source pointers could
    // step outside the factor storage when k is smaller than the block).
    for (std::size_t ii = n; ii-- > 0;) {
      const double* colii = factor + ii * stride;
      const std::size_t len = std::min(k, n - 1 - ii);
      x[ii] = avx2_fold1(x[ii], len, colii + 1, x + ii + 1) / colii[0];
    }
    return;
  }
  // Blocks of 8 rows: the 8 independent out-of-block ("far") contributions
  // fold through panel_fold with the shared trailing x, then the in-block
  // triangle resolves sequentially. AVX2 and AVX-512 share this exact block
  // structure, so their results are bit-identical.
  std::size_t hi = n;  // exclusive block top
  while (hi > 0) {
    const std::size_t lo = hi >= 8 ? hi - 8 : 0;
    const std::size_t bw = hi - lo;
    double init[8];
    double far[8];
    for (std::size_t s = 0; s < bw; ++s) init[s] = x[lo + s];
    const double* a0 = factor + lo * stride + (hi - lo);
    avx2_panel_fold(bw, init, a0, static_cast<std::ptrdiff_t>(k),
                    lo + k + 1 - hi, n - hi, x + hi, far);
    for (std::size_t s = bw; s-- > 0;) {
      const std::size_t ii = lo + s;
      const double* colii = factor + ii * stride;
      double acc = far[s];
      for (std::size_t i = ii + 1; i < hi; ++i) acc -= colii[i - ii] * x[i];
      x[ii] = acc / colii[0];
    }
    hi = lo;
  }
}

__attribute__((target("avx2"))) double avx2_cg_update(std::size_t n,
                                                      double alpha,
                                                      const double* p,
                                                      const double* ap,
                                                      double* x, double* r) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vna = _mm256_set1_pd(-alpha);
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d vx0 = _mm256_loadu_pd(x + i);
    vx0 = _mm256_add_pd(vx0, _mm256_mul_pd(va, _mm256_loadu_pd(p + i)));
    _mm256_storeu_pd(x + i, vx0);
    __m256d vx1 = _mm256_loadu_pd(x + i + 4);
    vx1 = _mm256_add_pd(vx1, _mm256_mul_pd(va, _mm256_loadu_pd(p + i + 4)));
    _mm256_storeu_pd(x + i + 4, vx1);
    __m256d vr0 = _mm256_loadu_pd(r + i);
    vr0 = _mm256_add_pd(vr0, _mm256_mul_pd(vna, _mm256_loadu_pd(ap + i)));
    _mm256_storeu_pd(r + i, vr0);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(vr0, vr0));
    __m256d vr1 = _mm256_loadu_pd(r + i + 4);
    vr1 = _mm256_add_pd(vr1, _mm256_mul_pd(vna, _mm256_loadu_pd(ap + i + 4)));
    _mm256_storeu_pd(r + i + 4, vr1);
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(vr1, vr1));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = combine8(lanes);
  const double nalpha = -alpha;
  for (; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] += nalpha * ap[i];
    acc += r[i] * r[i];
  }
  return acc;
}

__attribute__((target("avx2"))) double avx2_precond_dot(std::size_t n,
                                                        const double* d,
                                                        const double* r,
                                                        double* z) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d vr0 = _mm256_loadu_pd(r + i);
    const __m256d vz0 = _mm256_mul_pd(_mm256_loadu_pd(d + i), vr0);
    _mm256_storeu_pd(z + i, vz0);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(vr0, vz0));
    const __m256d vr1 = _mm256_loadu_pd(r + i + 4);
    const __m256d vz1 = _mm256_mul_pd(_mm256_loadu_pd(d + i + 4), vr1);
    _mm256_storeu_pd(z + i + 4, vz1);
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(vr1, vz1));
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, acc_lo);
  _mm256_store_pd(lanes + 4, acc_hi);
  double acc = combine8(lanes);
  for (; i < n; ++i) {
    z[i] = d[i] * r[i];
    acc += r[i] * z[i];
  }
  return acc;
}

__attribute__((target("avx2"))) void avx2_search_dir_update(std::size_t n,
                                                            double beta,
                                                            const double* z,
                                                            double* p) {
  const __m256d vb = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vp = _mm256_mul_pd(vb, _mm256_loadu_pd(p + i));
    _mm256_storeu_pd(p + i, _mm256_add_pd(_mm256_loadu_pd(z + i), vp));
  }
  for (; i < n; ++i) p[i] = z[i] + beta * p[i];
}

// SELL-8 mat-vec as two 4-lane halves: lanes 0–3 and 4–7 of every slot and
// every dot accumulator, the AVX-512 kernel's one register split in two.
// A dead lane is not gathered (its mask bit is clear, so the zero source
// stays) and its accumulator keeps its bits through the blend.
__attribute__((target("avx2"))) double avx2_sell8_matvec(const Sell8View& a,
                                                        const double* x,
                                                        const double* b,
                                                        double* y) {
  const std::size_t n = a.n;
  const std::size_t full = n / 8;  // slices whose 8 rows all exist
  const std::size_t slices = (n + 7) / 8;
  const __m256d zero = _mm256_setzero_pd();
  const __m256i one = _mm256_set1_epi64x(1);
  __m256d dot_lo = _mm256_setzero_pd();
  __m256d dot_hi = _mm256_setzero_pd();
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t first = a.slice_start[s];
    const std::size_t width = (a.slice_start[s + 1] - first) / 8;
    const double* val = a.val + first;
    const std::int32_t* col = a.col + first;
    const std::int32_t* len = a.row_len + 8 * s;
    const __m256i len_lo = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(len)));
    const __m256i len_hi = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(len + 4)));
    __m256i k = _mm256_setzero_si256();
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    for (std::size_t slot = 0; slot < width; ++slot) {
      const __m256d live_lo =
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(len_lo, k));
      const __m256d live_hi =
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(len_hi, k));
      const __m256d x_lo = _mm256_mask_i32gather_pd(
          zero, x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col)),
          live_lo, 8);
      const __m256d x_hi = _mm256_mask_i32gather_pd(
          zero, x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + 4)),
          live_hi, 8);
      acc_lo = _mm256_blendv_pd(
          acc_lo,
          _mm256_add_pd(acc_lo, _mm256_mul_pd(_mm256_loadu_pd(val), x_lo)),
          live_lo);
      acc_hi = _mm256_blendv_pd(
          acc_hi,
          _mm256_add_pd(acc_hi, _mm256_mul_pd(_mm256_loadu_pd(val + 4), x_hi)),
          live_hi);
      k = _mm256_add_epi64(k, one);
      val += 8;
      col += 8;
    }
    const std::size_t r0 = 8 * s;
    if (s < full) {
      if (b != nullptr) {
        acc_lo = _mm256_sub_pd(_mm256_loadu_pd(b + r0), acc_lo);
        acc_hi = _mm256_sub_pd(_mm256_loadu_pd(b + r0 + 4), acc_hi);
      }
      _mm256_storeu_pd(y + r0, acc_lo);
      _mm256_storeu_pd(y + r0 + 4, acc_hi);
      dot_lo = _mm256_add_pd(dot_lo,
                             _mm256_mul_pd(_mm256_loadu_pd(x + r0), acc_lo));
      dot_hi = _mm256_add_pd(
          dot_hi, _mm256_mul_pd(_mm256_loadu_pd(x + r0 + 4), acc_hi));
      continue;
    }
    // The short last slice: rows r0..n−1 only; their dot terms are the
    // sequential tail below, as in avx2_dot.
    const __m256i rows = _mm256_set1_epi64x(static_cast<long long>(n - r0));
    const __m256i m_lo =
        _mm256_cmpgt_epi64(rows, _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256i m_hi =
        _mm256_cmpgt_epi64(rows, _mm256_setr_epi64x(4, 5, 6, 7));
    if (b != nullptr) {
      acc_lo = _mm256_sub_pd(_mm256_maskload_pd(b + r0, m_lo), acc_lo);
      acc_hi = _mm256_sub_pd(_mm256_maskload_pd(b + r0 + 4, m_hi), acc_hi);
    }
    _mm256_maskstore_pd(y + r0, m_lo, acc_lo);
    _mm256_maskstore_pd(y + r0 + 4, m_hi, acc_hi);
  }
  alignas(32) double lanes[8];
  _mm256_store_pd(lanes, dot_lo);
  _mm256_store_pd(lanes + 4, dot_hi);
  double dot = combine8(lanes);
  for (std::size_t i = 8 * full; i < n; ++i) dot += x[i] * y[i];
  return dot;
}

__attribute__((target("avx2"))) void avx2_column_sweep_fwd(std::size_t n,
                                                           const double* r,
                                                           const double* l,
                                                           const double* w,
                                                           double* z) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d lw =
        _mm256_mul_pd(_mm256_loadu_pd(l + i), _mm256_loadu_pd(w + i));
    _mm256_storeu_pd(z + i, _mm256_sub_pd(_mm256_loadu_pd(r + i), lw));
  }
  for (; i < n; ++i) z[i] = r[i] - l[i] * w[i];
}

__attribute__((target("avx2"))) void avx2_column_sweep_bwd(std::size_t n,
                                                           const double* d,
                                                           const double* l,
                                                           const double* w,
                                                           double* z) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d zd =
        _mm256_mul_pd(_mm256_loadu_pd(z + i), _mm256_loadu_pd(d + i));
    const __m256d lw =
        _mm256_mul_pd(_mm256_loadu_pd(l + i), _mm256_loadu_pd(w + i));
    _mm256_storeu_pd(z + i, _mm256_sub_pd(zd, lw));
  }
  for (; i < n; ++i) z[i] = z[i] * d[i] - l[i] * w[i];
}

constexpr BackendOps kAvx2Ops = {
    "simd-avx2",       BackendKind::kSimd, avx2_axpy,
    avx2_scale,        avx2_dot,           avx2_axpy_dot,
    avx2_max_abs_diff, avx2_nmsub_fold,    avx2_panel_update,
    avx2_panel_fold,   avx2_trsv_fwd,      avx2_trsv_bwd,
    avx2_cg_update,    avx2_precond_dot,   avx2_search_dir_update,
    avx2_sell8_matvec, avx2_column_sweep_fwd, avx2_column_sweep_bwd,
};

// ---------------------------------------------------------------------------
// AVX-512 — same 8-lane accumulator in one register.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) __m512d load8_strided(const double* p,
                                                         std::ptrdiff_t s) {
  if (s == 1) return _mm512_loadu_pd(p);
  return _mm512_set_pd(p[7 * s], p[6 * s], p[5 * s], p[4 * s], p[3 * s],
                       p[2 * s], p[s], p[0]);
}

__attribute__((target("avx512f"))) void avx512_axpy(std::size_t n,
                                                    double alpha,
                                                    const double* x,
                                                    double* y) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vx = _mm512_loadu_pd(x + i);
    const __m512d vy = _mm512_loadu_pd(y + i);
    _mm512_storeu_pd(y + i, _mm512_add_pd(vy, _mm512_mul_pd(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx512f"))) void avx512_scale(std::size_t n,
                                                     double alpha, double* x) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx512f"))) double avx512_dot(std::size_t n,
                                                     const double* x,
                                                     const double* y) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_loadu_pd(x + i),
                                           _mm512_loadu_pd(y + i)));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double r = combine8(lanes);
  for (; i < n; ++i) r += x[i] * y[i];
  return r;
}

__attribute__((target("avx512f"))) double avx512_axpy_dot(std::size_t n,
                                                          double alpha,
                                                          const double* x,
                                                          double* y) {
  const __m512d va = _mm512_set1_pd(alpha);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d vy = _mm512_loadu_pd(y + i);
    vy = _mm512_add_pd(vy, _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(y + i, vy);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(vy, vy));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double r = combine8(lanes);
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
    r += y[i] * y[i];
  }
  return r;
}

__attribute__((target("avx512f"))) double avx512_max_abs_diff(std::size_t n,
                                                              const double* x,
                                                              const double* y) {
  __m512d m8 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d = _mm512_abs_pd(
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
    m8 = _mm512_max_pd(m8, d);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, m8);
  double m = combine8_max(lanes);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    const double a = d < 0.0 ? -d : d;
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx512f"))) double avx512_nmsub_fold(
    double init, std::size_t n, const double* a, std::ptrdiff_t sa,
    const double* x, std::ptrdiff_t sx) {
  __m512d acc8 = _mm512_setzero_pd();
  std::size_t i = 0;
  const double* pa = a;
  const double* px = x;
  for (; i + 8 <= n; i += 8) {
    acc8 = _mm512_sub_pd(
        acc8, _mm512_mul_pd(load8_strided(pa, sa), load8_strided(px, sx)));
    pa += 8 * sa;
    px += 8 * sx;
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc8);
  double acc = init + combine8(lanes);
  for (; i < n; ++i) {
    acc -= *pa * *px;
    pa += sa;
    px += sx;
  }
  return acc;
}

// Panel/fused kernels — same structure as the avx2 flavors above. The
// element-wise ones (panel_update, trsv_fwd, search_dir_update, the x-update
// half of cg_update) are bit-identical to scalar whatever the vector width;
// the reduction-bearing ones keep the fixed 8-lane tree (one __m512d here,
// an __m256d pair in avx2), so avx2 ≡ avx512 bitwise throughout.
// panel_update holds a 32-row block and masks source and block tails with
// __mmask8 loads and adds (AVX2: maskload plus blend over 16 rows).
__attribute__((target("avx512f"))) void avx512_panel_update(
    std::size_t p, const double* alpha, const double* const* x,
    const std::size_t* len, double* y) {
  std::size_t max_len = 0;
  for (std::size_t s = 0; s < p; ++s) max_len = std::max(max_len, len[s]);
  // Bit r of a 32-bit row mask covers block row r; register q takes bits
  // 8q..8q+7 as its __mmask8.
  const auto row_mask = [](std::size_t rows) -> std::uint32_t {
    return rows >= 32 ? ~std::uint32_t{0}
                      : (std::uint32_t{1} << rows) - 1u;
  };
  for (std::size_t r0 = 0; r0 < max_len; r0 += 32) {
    double* yb = y + r0;
    const bool whole = r0 + 32 <= max_len;
    const std::uint32_t my = row_mask(max_len - r0);
    const auto my0 = static_cast<__mmask8>(my);
    const auto my1 = static_cast<__mmask8>(my >> 8);
    const auto my2 = static_cast<__mmask8>(my >> 16);
    const auto my3 = static_cast<__mmask8>(my >> 24);
    __m512d acc0, acc1, acc2, acc3;
    if (whole) {
      acc0 = _mm512_loadu_pd(yb);
      acc1 = _mm512_loadu_pd(yb + 8);
      acc2 = _mm512_loadu_pd(yb + 16);
      acc3 = _mm512_loadu_pd(yb + 24);
    } else {
      acc0 = _mm512_maskz_loadu_pd(my0, yb);
      acc1 = _mm512_maskz_loadu_pd(my1, yb + 8);
      acc2 = _mm512_maskz_loadu_pd(my2, yb + 16);
      acc3 = _mm512_maskz_loadu_pd(my3, yb + 24);
    }
    for (std::size_t s = 0; s < p; ++s) {
      const std::size_t ls = len[s];
      if (ls <= r0) continue;
      const double* xs = x[s] + r0;
      const __m512d va = _mm512_set1_pd(alpha[s]);
      if (ls >= r0 + 32) {
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(va, _mm512_loadu_pd(xs)));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(va, _mm512_loadu_pd(xs + 8)));
        acc2 = _mm512_add_pd(acc2,
                             _mm512_mul_pd(va, _mm512_loadu_pd(xs + 16)));
        acc3 = _mm512_add_pd(acc3,
                             _mm512_mul_pd(va, _mm512_loadu_pd(xs + 24)));
        continue;
      }
      // The source ends inside the block: masked-off lanes are neither
      // loaded nor added, so they keep their bits.
      const std::uint32_t m = row_mask(ls - r0);
      const auto m0 = static_cast<__mmask8>(m);
      const auto m1 = static_cast<__mmask8>(m >> 8);
      const auto m2 = static_cast<__mmask8>(m >> 16);
      const auto m3 = static_cast<__mmask8>(m >> 24);
      acc0 = _mm512_mask_add_pd(
          acc0, m0, acc0, _mm512_mul_pd(va, _mm512_maskz_loadu_pd(m0, xs)));
      acc1 = _mm512_mask_add_pd(
          acc1, m1, acc1,
          _mm512_mul_pd(va, _mm512_maskz_loadu_pd(m1, xs + 8)));
      acc2 = _mm512_mask_add_pd(
          acc2, m2, acc2,
          _mm512_mul_pd(va, _mm512_maskz_loadu_pd(m2, xs + 16)));
      acc3 = _mm512_mask_add_pd(
          acc3, m3, acc3,
          _mm512_mul_pd(va, _mm512_maskz_loadu_pd(m3, xs + 24)));
    }
    if (whole) {
      _mm512_storeu_pd(yb, acc0);
      _mm512_storeu_pd(yb + 8, acc1);
      _mm512_storeu_pd(yb + 16, acc2);
      _mm512_storeu_pd(yb + 24, acc3);
    } else {
      _mm512_mask_storeu_pd(yb, my0, acc0);
      _mm512_mask_storeu_pd(yb + 8, my1, acc1);
      _mm512_mask_storeu_pd(yb + 16, my2, acc2);
      _mm512_mask_storeu_pd(yb + 24, my3, acc3);
    }
  }
}

__attribute__((target("avx512f"))) double avx512_fold1(double init,
                                                       std::size_t n,
                                                       const double* a,
                                                       const double* x) {
  __m512d acc8 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc8 = _mm512_sub_pd(
        acc8, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(x + i)));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc8);
  double acc = init + combine8(lanes);
  for (; i < n; ++i) acc -= a[i] * x[i];
  return acc;
}

__attribute__((target("avx512f"))) void avx512_panel_fold(
    std::size_t p, const double* init, const double* a0, std::ptrdiff_t sa,
    std::size_t len0, std::size_t len_cap, const double* x, double* out) {
  for (std::size_t s = 0; s < p; ++s) {
    out[s] =
        avx512_fold1(init[s], std::min(len0 + s, len_cap), a0 + s * sa, x);
  }
}

__attribute__((target("avx512f"))) void avx512_trsv_fwd(std::size_t n,
                                                        std::size_t k,
                                                        const double* factor,
                                                        double* x) {
  const std::size_t stride = k + 1;
  for (std::size_t j = 0; j < n; ++j) {
    const double* colj = factor + j * stride;
    const double xj = x[j] / colj[0];
    x[j] = xj;
    avx512_axpy(std::min(k, n - 1 - j), -xj, colj + 1, x + j + 1);
  }
}

__attribute__((target("avx512f"))) void avx512_trsv_bwd(std::size_t n,
                                                        std::size_t k,
                                                        const double* factor,
                                                        double* x) {
  const std::size_t stride = k + 1;
  if (k < 8) {
    for (std::size_t ii = n; ii-- > 0;) {
      const double* colii = factor + ii * stride;
      const std::size_t len = std::min(k, n - 1 - ii);
      x[ii] = avx512_fold1(x[ii], len, colii + 1, x + ii + 1) / colii[0];
    }
    return;
  }
  std::size_t hi = n;  // exclusive block top; must mirror avx2_trsv_bwd
  while (hi > 0) {
    const std::size_t lo = hi >= 8 ? hi - 8 : 0;
    const std::size_t bw = hi - lo;
    double init[8];
    double far[8];
    for (std::size_t s = 0; s < bw; ++s) init[s] = x[lo + s];
    const double* a0 = factor + lo * stride + (hi - lo);
    avx512_panel_fold(bw, init, a0, static_cast<std::ptrdiff_t>(k),
                      lo + k + 1 - hi, n - hi, x + hi, far);
    for (std::size_t s = bw; s-- > 0;) {
      const std::size_t ii = lo + s;
      const double* colii = factor + ii * stride;
      double acc = far[s];
      for (std::size_t i = ii + 1; i < hi; ++i) acc -= colii[i - ii] * x[i];
      x[ii] = acc / colii[0];
    }
    hi = lo;
  }
}

__attribute__((target("avx512f"))) double avx512_cg_update(
    std::size_t n, double alpha, const double* p, const double* ap, double* x,
    double* r) {
  const __m512d va = _mm512_set1_pd(alpha);
  const __m512d vna = _mm512_set1_pd(-alpha);
  __m512d acc8 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d vx = _mm512_loadu_pd(x + i);
    vx = _mm512_add_pd(vx, _mm512_mul_pd(va, _mm512_loadu_pd(p + i)));
    _mm512_storeu_pd(x + i, vx);
    __m512d vr = _mm512_loadu_pd(r + i);
    vr = _mm512_add_pd(vr, _mm512_mul_pd(vna, _mm512_loadu_pd(ap + i)));
    _mm512_storeu_pd(r + i, vr);
    acc8 = _mm512_add_pd(acc8, _mm512_mul_pd(vr, vr));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc8);
  double acc = combine8(lanes);
  const double nalpha = -alpha;
  for (; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] += nalpha * ap[i];
    acc += r[i] * r[i];
  }
  return acc;
}

__attribute__((target("avx512f"))) double avx512_precond_dot(std::size_t n,
                                                             const double* d,
                                                             const double* r,
                                                             double* z) {
  __m512d acc8 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vr = _mm512_loadu_pd(r + i);
    const __m512d vz = _mm512_mul_pd(_mm512_loadu_pd(d + i), vr);
    _mm512_storeu_pd(z + i, vz);
    acc8 = _mm512_add_pd(acc8, _mm512_mul_pd(vr, vz));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc8);
  double acc = combine8(lanes);
  for (; i < n; ++i) {
    z[i] = d[i] * r[i];
    acc += r[i] * z[i];
  }
  return acc;
}

__attribute__((target("avx512f"))) void avx512_search_dir_update(
    std::size_t n, double beta, const double* z, double* p) {
  const __m512d vb = _mm512_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vp = _mm512_mul_pd(vb, _mm512_loadu_pd(p + i));
    _mm512_storeu_pd(p + i, _mm512_add_pd(_mm512_loadu_pd(z + i), vp));
  }
  for (; i < n; ++i) p[i] = z[i] + beta * p[i];
}

// SELL-8 mat-vec: one slot is one masked gather and one masked add. Lane l
// of slot k is live while k < row_len; dead lanes are neither gathered nor
// added, so every row's accumulator sees exactly its own entries in column
// order. The full slices feed the dot's 8-lane accumulator as they finish
// (lane l holds rows ≡ l mod 8, as in avx512_dot); the short last slice is
// the dot's sequential tail.
__attribute__((target("avx512f"))) double avx512_sell8_matvec(
    const Sell8View& a, const double* x, const double* b, double* y) {
  const std::size_t n = a.n;
  const std::size_t full = n / 8;
  const std::size_t slices = (n + 7) / 8;
  const __m512d zero = _mm512_setzero_pd();
  const __m512i one = _mm512_set1_epi64(1);
  __m512d dot8 = _mm512_setzero_pd();
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t first = a.slice_start[s];
    const std::size_t width = (a.slice_start[s + 1] - first) / 8;
    const double* val = a.val + first;
    const std::int32_t* col = a.col + first;
    // (The maskz form: GCC's plain _mm512_cvtepi32_epi64 starts from an
    // undefined register and draws a -Wmaybe-uninitialized warning.)
    const __m512i len = _mm512_maskz_cvtepi32_epi64(
        0xFF, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(a.row_len + 8 * s)));
    __m512i k = _mm512_setzero_si512();
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t slot = 0; slot < width; ++slot) {
      const __mmask8 live = _mm512_cmpgt_epi64_mask(len, k);
      const __m512d xv = _mm512_mask_i32gather_pd(
          zero, live, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col)),
          x, 8);
      acc = _mm512_mask_add_pd(acc, live, acc,
                               _mm512_mul_pd(_mm512_loadu_pd(val), xv));
      k = _mm512_add_epi64(k, one);
      val += 8;
      col += 8;
    }
    const std::size_t r0 = 8 * s;
    if (s < full) {
      if (b != nullptr) acc = _mm512_sub_pd(_mm512_loadu_pd(b + r0), acc);
      _mm512_storeu_pd(y + r0, acc);
      dot8 = _mm512_add_pd(dot8, _mm512_mul_pd(_mm512_loadu_pd(x + r0), acc));
      continue;
    }
    const auto rows = static_cast<__mmask8>((1u << (n - r0)) - 1u);
    if (b != nullptr) {
      acc = _mm512_sub_pd(_mm512_maskz_loadu_pd(rows, b + r0), acc);
    }
    _mm512_mask_storeu_pd(y + r0, rows, acc);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, dot8);
  double dot = combine8(lanes);
  for (std::size_t i = 8 * full; i < n; ++i) dot += x[i] * y[i];
  return dot;
}

// Column sweeps with a masked tail: the lanes past n are neither loaded nor
// stored.
__attribute__((target("avx512f"))) void avx512_column_sweep_fwd(
    std::size_t n, const double* r, const double* l, const double* w,
    double* z) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d lw =
        _mm512_mul_pd(_mm512_loadu_pd(l + i), _mm512_loadu_pd(w + i));
    _mm512_storeu_pd(z + i, _mm512_sub_pd(_mm512_loadu_pd(r + i), lw));
  }
  if (i < n) {
    const auto m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d lw = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, l + i),
                                     _mm512_maskz_loadu_pd(m, w + i));
    _mm512_mask_storeu_pd(z + i, m,
                          _mm512_sub_pd(_mm512_maskz_loadu_pd(m, r + i), lw));
  }
}

__attribute__((target("avx512f"))) void avx512_column_sweep_bwd(
    std::size_t n, const double* d, const double* l, const double* w,
    double* z) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d zd =
        _mm512_mul_pd(_mm512_loadu_pd(z + i), _mm512_loadu_pd(d + i));
    const __m512d lw =
        _mm512_mul_pd(_mm512_loadu_pd(l + i), _mm512_loadu_pd(w + i));
    _mm512_storeu_pd(z + i, _mm512_sub_pd(zd, lw));
  }
  if (i < n) {
    const auto m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d zd = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, z + i),
                                     _mm512_maskz_loadu_pd(m, d + i));
    const __m512d lw = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, l + i),
                                     _mm512_maskz_loadu_pd(m, w + i));
    _mm512_mask_storeu_pd(z + i, m, _mm512_sub_pd(zd, lw));
  }
}

constexpr BackendOps kAvx512Ops = {
    "simd-avx512",       BackendKind::kSimd,  avx512_axpy,
    avx512_scale,        avx512_dot,          avx512_axpy_dot,
    avx512_max_abs_diff, avx512_nmsub_fold,   avx512_panel_update,
    avx512_panel_fold,   avx512_trsv_fwd,     avx512_trsv_bwd,
    avx512_cg_update,    avx512_precond_dot,  avx512_search_dir_update,
    avx512_sell8_matvec, avx512_column_sweep_fwd, avx512_column_sweep_bwd,
};

}  // namespace

const BackendOps* avx2_table() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &kAvx2Ops : nullptr;
}

const BackendOps* avx512_table() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported ? &kAvx512Ops : nullptr;
}

#else  // non-x86: scalar only

const BackendOps* avx2_table() noexcept { return nullptr; }
const BackendOps* avx512_table() noexcept { return nullptr; }

#endif

}  // namespace oftec::la::detail
