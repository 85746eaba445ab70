#include "la/backend.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>

#include "la/backend_detail.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/obs.h"

namespace oftec::la {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are byte-for-byte the loop bodies the seed
// solvers ran inline (sequential accumulation, multiply-then-add, no FMA at
// the baseline -march), so routing the solvers through this table changes no
// bits. tests/la/test_backend_parity.cpp enforces that against checked-in
// goldens.
// ---------------------------------------------------------------------------

void scalar_axpy(std::size_t n, double alpha, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scalar_scale(std::size_t n, double alpha, double* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double scalar_dot(std::size_t n, const double* x, const double* y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double scalar_axpy_dot(std::size_t n, double alpha, const double* x,
                       double* y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
    acc += y[i] * y[i];
  }
  return acc;
}

double scalar_max_abs_diff(std::size_t n, const double* x, const double* y) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    const double a = d < 0.0 ? -d : d;
    if (a > m) m = a;
  }
  return m;
}

double scalar_nmsub_fold(double init, std::size_t n, const double* a,
                         std::ptrdiff_t sa, const double* x,
                         std::ptrdiff_t sx) {
  double acc = init;
  for (std::size_t i = 0; i < n; ++i) {
    acc -= *a * *x;
    a += sa;
    x += sx;
  }
  return acc;
}

void scalar_panel_update(std::size_t p, const double* alpha,
                         const double* const* x, const std::size_t* len,
                         double* y) {
  // p successive axpys in s order: per destination element the sources
  // apply ascending, which is the panel_update contract verbatim.
  for (std::size_t s = 0; s < p; ++s) {
    scalar_axpy(len[s], alpha[s], x[s], y);
  }
}

void scalar_panel_fold(std::size_t p, const double* init, const double* a0,
                       std::ptrdiff_t sa, std::size_t len0,
                       std::size_t len_cap, const double* x, double* out) {
  for (std::size_t s = 0; s < p; ++s) {
    const std::size_t len = std::min(len0 + s, len_cap);
    out[s] = scalar_nmsub_fold(init[s], len, a0 + s * sa, 1, x, 1);
  }
}

void scalar_trsv_fwd(std::size_t n, std::size_t k, const double* factor,
                     double* x) {
  // Column-oriented forward substitution. Per element x[i] this subtracts
  // l(i,j)·x[j] for j ascending and then divides by l(i,i) — the same
  // per-element operation sequence as the seed's row folds, so the result
  // is bit-identical to them (x[j]·l ≡ l·x[j]; y + (−a)·x ≡ y − a·x).
  const std::size_t stride = k + 1;
  for (std::size_t j = 0; j < n; ++j) {
    const double* colj = factor + j * stride;
    const double xj = x[j] / colj[0];
    x[j] = xj;
    const std::size_t sub = std::min(k, n - 1 - j);  // rows j+1..j+sub
    scalar_axpy(sub, -xj, colj + 1, x + j + 1);
  }
}

void scalar_trsv_bwd(std::size_t n, std::size_t k, const double* factor,
                     double* x) {
  // Row folds over contiguous factor columns (column ii of L is row ii of
  // Lᵀ), sequential per row: the seed's exact back-substitution arithmetic.
  const std::size_t stride = k + 1;
  for (std::size_t ii = n; ii-- > 0;) {
    const double* colii = factor + ii * stride;
    const std::size_t len = std::min(k, n - 1 - ii);
    const double acc = scalar_nmsub_fold(x[ii], len, colii + 1, 1,
                                         x + ii + 1, 1);
    x[ii] = acc / colii[0];
  }
}

double scalar_cg_update(std::size_t n, double alpha, const double* p,
                        const double* ap, double* x, double* r) {
  // Interleaving the two independent destinations changes no per-element
  // arithmetic: identical bits to axpy(alpha, p, x); axpy_dot(−alpha, ap, r).
  const double nalpha = -alpha;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] += nalpha * ap[i];
    acc += r[i] * r[i];
  }
  return acc;
}

double scalar_precond_dot(std::size_t n, const double* d, const double* r,
                          double* z) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = d[i] * r[i];
    acc += r[i] * z[i];
  }
  return acc;
}

void scalar_search_dir_update(std::size_t n, double beta, const double* z,
                              double* p) {
  for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
}

double scalar_sell8_matvec(const Sell8View& a, const double* x,
                           const double* b, double* y) {
  // Slice by slice, eight row accumulators walking the slice's slots once:
  // each row sees its entries in slot (= column) order, the seed's CSR row
  // loop, and the rows then feed its sequential dot in order. A dead lane
  // adds +0.0, which leaves its accumulator's bits alone (it starts at +0.0
  // and a sum from +0.0 is never −0.0), and never reads x.
  double dot = 0.0;
  for (std::size_t r0 = 0, s = 0; r0 < a.n; r0 += 8, ++s) {
    double acc[8] = {};
    for (std::size_t k = a.slice_start[s]; k < a.slice_start[s + 1]; ++k) {
      const double* val = a.val + 8 * k;
      const std::ptrdiff_t col0 = static_cast<std::ptrdiff_t>(r0) + a.offset[k];
      const unsigned live = a.mask[k];
      for (std::size_t l = 0; l < 8; ++l) {
        acc[l] += (live >> l & 1u) != 0
                      ? val[l] * x[col0 + static_cast<std::ptrdiff_t>(l)]
                      : 0.0;
      }
    }
    const std::size_t rows = std::min<std::size_t>(8, a.n - r0);
    for (std::size_t l = 0; l < rows; ++l) {
      const std::size_t r = r0 + l;
      y[r] = b != nullptr ? b[r] - acc[l] : acc[l];
      dot += x[r] * y[r];
    }
  }
  return dot;
}

void scalar_column_sweep_fwd(std::size_t n, const double* r, const double* l,
                             const double* w, double* z) {
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] - l[i] * w[i];
}

void scalar_column_sweep_bwd(std::size_t n, const double* d, const double* l,
                             const double* w, double* z) {
  for (std::size_t i = 0; i < n; ++i) z[i] = z[i] * d[i] - l[i] * w[i];
}

constexpr BackendOps kScalarOps = {
    "scalar",          BackendKind::kScalar, scalar_axpy,
    scalar_scale,      scalar_dot,           scalar_axpy_dot,
    scalar_max_abs_diff, scalar_nmsub_fold,  scalar_panel_update,
    scalar_panel_fold, scalar_trsv_fwd,      scalar_trsv_bwd,
    scalar_cg_update,  scalar_precond_dot,   scalar_search_dir_update,
    scalar_sell8_matvec, scalar_column_sweep_fwd, scalar_column_sweep_bwd,
};

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const obs::Counter g_obs_installs = obs::counter("la.backend.installs");
const obs::Counter g_obs_simd_selected = obs::counter("la.backend.simd_selected");
const obs::Counter g_obs_scalar_fallback =
    obs::counter("la.backend.scalar_fallback");

std::atomic<const BackendOps*> g_active{nullptr};
std::mutex g_install_mutex;

/// Widest simd table the machine can run, after the dispatch-fallback fault
/// gate. The fault site models a production deployment discovering at
/// startup that its simd path is unusable (microcode disable, masked CPUID
/// in a VM) — the chaos suite arms it to prove the solver stack degrades to
/// scalar with identical results, not an abort.
const BackendOps* usable_simd_table() {
  static const fault::Site simd_unavailable =
      fault::site("la.backend.simd_unavailable");
  if (simd_unavailable.should_fail()) {
    log::warn("la.backend: simd dispatch unavailable (injected); ",
              "falling back to scalar kernels");
    return nullptr;
  }
  if (const BackendOps* t = detail::avx512_table()) return t;
  return detail::avx2_table();
}

}  // namespace

const BackendOps& scalar_backend() noexcept { return kScalarOps; }

bool simd_supported() noexcept { return detail::avx2_table() != nullptr; }
bool avx512_supported() noexcept { return detail::avx512_table() != nullptr; }

const BackendOps* simd_backend() noexcept {
  if (const BackendOps* t = detail::avx512_table()) return t;
  return detail::avx2_table();
}
const BackendOps* avx2_backend() noexcept { return detail::avx2_table(); }
const BackendOps* avx512_backend() noexcept { return detail::avx512_table(); }

const BackendOps& install_backend(const char* spec) {
  const std::lock_guard<std::mutex> lock(g_install_mutex);
  const std::string_view s = spec != nullptr ? std::string_view(spec)
                                             : std::string_view("auto");
  const BackendOps* chosen = nullptr;
  if (s == "scalar") {
    chosen = &kScalarOps;
  } else if (s == "simd" || s == "auto" || s.empty()) {
    chosen = usable_simd_table();
    if (chosen == nullptr) {
      if (s == "simd") {
        log::warn("la.backend: OFTEC_LA_BACKEND=simd requested but no simd ",
                  "implementation is runnable here; using scalar");
      }
      chosen = &kScalarOps;
    }
  } else if (s == "avx2") {
    // Narrow test/bench flavors: pin one ISA so the parity suite can compare
    // avx2 and avx512 outputs on machines that have both.
    chosen = usable_simd_table() != nullptr ? detail::avx2_table() : nullptr;
    if (chosen == nullptr) {
      log::warn("la.backend: avx2 kernels unavailable; using scalar");
      chosen = &kScalarOps;
    }
  } else if (s == "avx512") {
    chosen = usable_simd_table() != nullptr ? detail::avx512_table() : nullptr;
    if (chosen == nullptr) {
      log::warn("la.backend: avx512 kernels unavailable; using scalar");
      chosen = &kScalarOps;
    }
  } else {
    log::warn("la.backend: unrecognized OFTEC_LA_BACKEND=\"", s,
              "\" (expected scalar|simd|auto); using auto");
    chosen = usable_simd_table();
    if (chosen == nullptr) chosen = &kScalarOps;
  }

  g_obs_installs.add();
  if (chosen->kind == BackendKind::kSimd) {
    g_obs_simd_selected.add();
  } else if (s != "scalar") {
    g_obs_scalar_fallback.add();
  }
  log::debug("la.backend: installed ", chosen->name, " (requested \"", s,
             "\")");
  g_active.store(chosen, std::memory_order_release);
  return *chosen;
}

const BackendOps& backend() noexcept {
  const BackendOps* active = g_active.load(std::memory_order_acquire);
  if (active != nullptr) return *active;
  // First use: resolve from the environment. Concurrent first calls race
  // benignly — both resolve the same spec and install the same table.
  return install_backend(std::getenv("OFTEC_LA_BACKEND"));
}

}  // namespace oftec::la
