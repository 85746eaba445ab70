// AVX2 / AVX-512 kernel tables for the la::Backend seam.
//
// Every simd kernel is written once, in backend_simd_kernels.inc, against an
// 8-lane "pack": two __m256d under AVX2, one __m512d under AVX-512, each
// with a matching lane mask. This file defines the pack twice and includes
// the kernel source under each, so the two tables run the same operations
// in the same order and differ only in how an 8-lane pack is held, and in
// how many packs panel_update's destination block holds (kPanelPacks: an
// element-wise choice, sized to each ISA's register file).
//
// The build stays at the baseline -march (no global -mavx2): each flavor
// compiles under its own `#pragma GCC target`, and its table is only handed
// out after a __builtin_cpu_supports check — the binary runs unchanged on
// pre-AVX2 machines, where dispatch resolves to scalar. This file compiles
// with -ffp-contract=off (src/la/CMakeLists.txt): the AVX-512 target implies
// FMA, and a contracted multiply-add would break AVX2 ≡ AVX-512 and the
// agreement of the scalar tails with the scalar reference.
//
// Determinism design (see backend.h):
//   * Element-wise kernels do multiply-then-add per element — explicit pack
//     mul and add, never FMA — so they are bit-identical to the scalar
//     reference, whatever the width or tail handling.
//   * Reductions use a FIXED 8-logical-lane accumulator layout: lane l
//     accumulates elements i ≡ l (mod 8) in index order. Both packs spill
//     their 8 lane totals and combine them with the same scalar tree
//         ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))
//     then fold the tail (< 8 elements) sequentially. Hence avx2 and avx512
//     return identical bits for identical inputs, and a fixed backend is
//     deterministic across runs and thread counts. For n < 8 the whole input
//     is tail, so reductions degenerate to the scalar result exactly.
//   * The SELL-8 mat-vec is element-wise per row (each lane is one row,
//     summed from +0.0 in slot order, dead lanes masked off), and its fused
//     dot is the same 8-lane tree: a slice's lane l is a row ≡ l (mod 8).
//   * max_abs_diff assumes finite inputs (NaN handling follows the max
//     instruction's operand order, which differs from std::max; the library
//     never feeds NaNs here — solvers reject non-finite state upstream).
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
// AVX2: lanes 0–3 and 4–7 of a pack in two registers.
// ---------------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC target("avx2")

namespace avx2 {

constexpr const char* kName = "simd-avx2";
/// panel_update's block height in packs: two (16 rows) hold its
/// accumulators and row masks in 8 of the 16 ymm registers; four spill.
constexpr std::size_t kPanelPacks = 2;

struct Pack {
  __m256d lo, hi;
};
/// Lane l is live when its 64-bit word is all ones.
struct Mask {
  __m256i lo, hi;
};
/// A SELL-8 slice's 8 row lengths, widened to 64-bit lanes.
struct Lens {
  __m256i lo, hi;
};

[[gnu::always_inline]] inline Pack load(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}
[[gnu::always_inline]] inline void store(double* p, Pack v) {
  _mm256_storeu_pd(p, v.lo);
  _mm256_storeu_pd(p + 4, v.hi);
}
[[gnu::always_inline]] inline __m256d load4_strided(const double* p,
                                                    std::ptrdiff_t s) {
  if (s == 1) return _mm256_loadu_pd(p);
  return _mm256_set_pd(p[3 * s], p[2 * s], p[s], p[0]);
}
/// Lane l holds p[l·s].
[[gnu::always_inline]] inline Pack load_strided(const double* p,
                                                std::ptrdiff_t s) {
  return {load4_strided(p, s), load4_strided(p + 4 * s, s)};
}
[[gnu::always_inline]] inline Pack add(Pack a, Pack b) {
  return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
[[gnu::always_inline]] inline Pack sub(Pack a, Pack b) {
  return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
[[gnu::always_inline]] inline Pack mul(Pack a, Pack b) {
  return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}
[[gnu::always_inline]] inline Pack set1(double v) {
  const __m256d b = _mm256_set1_pd(v);
  return {b, b};
}
[[gnu::always_inline]] inline Pack zero() {
  return {_mm256_setzero_pd(), _mm256_setzero_pd()};
}
[[gnu::always_inline]] inline Pack abs(Pack a) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  return {_mm256_andnot_pd(sign, a.lo), _mm256_andnot_pd(sign, a.hi)};
}
[[gnu::always_inline]] inline Pack max(Pack a, Pack b) {
  return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
}
[[gnu::always_inline]] inline void spill(double lanes[8], Pack v) {
  _mm256_storeu_pd(lanes, v.lo);
  _mm256_storeu_pd(lanes + 4, v.hi);
}
/// Lane l live when 8·q + l < k: pack q's share of the first k lanes of a
/// run of packs (k may be anything; q = 0 gives lanes 0 … k−1).
[[gnu::always_inline]] inline Mask first(std::size_t k, std::size_t q = 0) {
  const __m256i kk = _mm256_set1_epi64x(static_cast<long long>(k));
  const auto l0 = static_cast<long long>(8 * q);
  return {_mm256_cmpgt_epi64(kk, _mm256_setr_epi64x(l0, l0 + 1, l0 + 2,
                                                    l0 + 3)),
          _mm256_cmpgt_epi64(kk, _mm256_setr_epi64x(l0 + 4, l0 + 5, l0 + 6,
                                                    l0 + 7))};
}
/// Live lanes from p; dead lanes read as +0.0 and are never touched.
[[gnu::always_inline]] inline Pack load_live(Mask m, const double* p) {
  return {_mm256_maskload_pd(p, m.lo), _mm256_maskload_pd(p + 4, m.hi)};
}
[[gnu::always_inline]] inline void store_live(double* p, Mask m, Pack v) {
  _mm256_maskstore_pd(p, m.lo, v.lo);
  _mm256_maskstore_pd(p + 4, m.hi, v.hi);
}
/// acc + t on live lanes; dead lanes keep acc's bits.
[[gnu::always_inline]] inline Pack add_live(Pack acc, Mask m, Pack t) {
  return {_mm256_blendv_pd(acc.lo, _mm256_add_pd(acc.lo, t.lo),
                           _mm256_castsi256_pd(m.lo)),
          _mm256_blendv_pd(acc.hi, _mm256_add_pd(acc.hi, t.hi),
                           _mm256_castsi256_pd(m.hi))};
}
[[gnu::always_inline]] inline Lens load_lens(const std::int32_t* len) {
  return {_mm256_cvtepi32_epi64(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(len))),
          _mm256_cvtepi32_epi64(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(len + 4)))};
}
/// Lane l live while slot[l] < len[l]; a slot counter starts at Lens{}
/// and steps by next_slot.
[[gnu::always_inline]] inline Mask slot_live(Lens len, Lens slot) {
  return {_mm256_cmpgt_epi64(len.lo, slot.lo),
          _mm256_cmpgt_epi64(len.hi, slot.hi)};
}
[[gnu::always_inline]] inline Lens next_slot(Lens slot) {
  const __m256i one = _mm256_set1_epi64x(1);
  return {_mm256_add_epi64(slot.lo, one), _mm256_add_epi64(slot.hi, one)};
}
/// x[col[l]] on live lanes, +0.0 on dead ones (never loaded).
[[gnu::always_inline]] inline Pack gather_live(Mask m, const std::int32_t* col,
                                               const double* x) {
  return {_mm256_mask_i32gather_pd(
              _mm256_setzero_pd(), x,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(col)),
              _mm256_castsi256_pd(m.lo), 8),
          _mm256_mask_i32gather_pd(
              _mm256_setzero_pd(), x,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + 4)),
              _mm256_castsi256_pd(m.hi), 8)};
}

#include "la/backend_simd_kernels.inc"

}  // namespace avx2

#pragma GCC pop_options

// ---------------------------------------------------------------------------
// AVX-512: a pack is one register, a mask one __mmask8.
// ---------------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC target("avx512f")

namespace avx512 {

constexpr const char* kName = "simd-avx512";
constexpr std::size_t kPanelPacks = 4;  // 32 rows

using Pack = __m512d;
using Mask = __mmask8;
using Lens = __m512i;

[[gnu::always_inline]] inline Pack load(const double* p) {
  return _mm512_loadu_pd(p);
}
[[gnu::always_inline]] inline void store(double* p, Pack v) {
  _mm512_storeu_pd(p, v);
}
[[gnu::always_inline]] inline Pack load_strided(const double* p,
                                                std::ptrdiff_t s) {
  if (s == 1) return _mm512_loadu_pd(p);
  return _mm512_set_pd(p[7 * s], p[6 * s], p[5 * s], p[4 * s], p[3 * s],
                       p[2 * s], p[s], p[0]);
}
[[gnu::always_inline]] inline Pack add(Pack a, Pack b) {
  return _mm512_add_pd(a, b);
}
[[gnu::always_inline]] inline Pack sub(Pack a, Pack b) {
  return _mm512_sub_pd(a, b);
}
[[gnu::always_inline]] inline Pack mul(Pack a, Pack b) {
  return _mm512_mul_pd(a, b);
}
[[gnu::always_inline]] inline Pack set1(double v) { return _mm512_set1_pd(v); }
[[gnu::always_inline]] inline Pack zero() { return _mm512_setzero_pd(); }
[[gnu::always_inline]] inline Pack abs(Pack a) { return _mm512_abs_pd(a); }
// (The maskz forms here and in load_lens: GCC's unmasked _mm512_max_pd and
// _mm512_cvtepi32_epi64 start from an undefined register and draw a
// -Wmaybe-uninitialized warning.)
[[gnu::always_inline]] inline Pack max(Pack a, Pack b) {
  return _mm512_maskz_max_pd(0xFF, a, b);
}
[[gnu::always_inline]] inline void spill(double lanes[8], Pack v) {
  _mm512_storeu_pd(lanes, v);
}
[[gnu::always_inline]] inline Mask first(std::size_t k, std::size_t q = 0) {
  const auto l0 = static_cast<long long>(8 * q);
  return _mm512_cmpgt_epi64_mask(
      _mm512_set1_epi64(static_cast<long long>(k)),
      _mm512_setr_epi64(l0, l0 + 1, l0 + 2, l0 + 3, l0 + 4, l0 + 5, l0 + 6,
                        l0 + 7));
}
[[gnu::always_inline]] inline Pack load_live(Mask m, const double* p) {
  return _mm512_maskz_loadu_pd(m, p);
}
[[gnu::always_inline]] inline void store_live(double* p, Mask m, Pack v) {
  _mm512_mask_storeu_pd(p, m, v);
}
[[gnu::always_inline]] inline Pack add_live(Pack acc, Mask m, Pack t) {
  return _mm512_mask_add_pd(acc, m, acc, t);
}
[[gnu::always_inline]] inline Lens load_lens(const std::int32_t* len) {
  return _mm512_maskz_cvtepi32_epi64(
      0xFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(len)));
}
[[gnu::always_inline]] inline Mask slot_live(Lens len, Lens slot) {
  return _mm512_cmpgt_epi64_mask(len, slot);
}
[[gnu::always_inline]] inline Lens next_slot(Lens slot) {
  return _mm512_add_epi64(slot, _mm512_set1_epi64(1));
}
[[gnu::always_inline]] inline Pack gather_live(Mask m, const std::int32_t* col,
                                               const double* x) {
  return _mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), m,
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col)), x, 8);
}

#include "la/backend_simd_kernels.inc"

}  // namespace avx512

#pragma GCC pop_options

}  // namespace

const BackendOps* avx2_table() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported ? &avx2::kOps : nullptr;
}

const BackendOps* avx512_table() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported ? &avx512::kOps : nullptr;
}

#else  // non-x86: scalar only

const BackendOps* avx2_table() noexcept { return nullptr; }
const BackendOps* avx512_table() noexcept { return nullptr; }

#endif

}  // namespace oftec::la::detail
