// Transient engine: backward-Euler simulation of the RC network, the one
// transient path in the library.
//
// A step solves (C/dt + M(ω, I, a))·Tₙ₊₁ = C/dt·Tₙ + rhs(ω, I, Tₙ), where
// the exact leakage of the current state enters rhs and only its held
// slopes a enter the matrix (thermal/transient.h). Refactoring that banded
// matrix (O(n·bw²)) at every step would dominate every closed-loop run —
// the DTM loop, transient boost, serve sessions and the ablation benches —
// so the engine avoids it without changing an output bit:
//
//   1. Static base plus stamps. The conduction edges and PCB-ambient
//      couplings never change across steps; the stepper takes them once,
//      at construction, from ThermalModel::static_system() and keeps the
//      lower band ((k+1)·n doubles) and rhs. A factorization copies that
//      base straight into a factor slot's storage, lets the model stamp the
//      operating point onto its diagonal (ThermalModel::stamp_diagonal,
//      assemble()'s order), adds C/dt, and runs Cholesky in place — so
//      every entry accumulates ThermalModel::assemble's additions in its
//      order, followed by C/dt, and the factor is that of the assembled
//      step matrix, bit for bit. The step matrix is symmetric, and with C/dt
//      on its diagonal positive definite away from runaway; on a
//      non-positive pivot the stepper rebuilds the full band (mirrored base
//      + the same stamps) and takes the pivoted LU (counted in
//      lu_fallbacks()). The rhs is built the same way (stamp_rhs, then
//      C/dt·Tₙ).
//
//   2. Factor reuse. The step matrix depends only on (dt, ω, I, held
//      leakage slopes); the exact leakage of the current state enters the
//      right-hand side alone. Factors are cached in a small LRU (eight
//      slots) keyed on the exact IEEE bits of those inputs (the steady
//      SolveEngine's keying discipline). Under a held setting a
//      factorization lasts until some chip cell's exact slope leaves the
//      relative tolerance around its held one
//      (TransientOptions::relinearization_threshold, default 0.1: ≈ 3 K of
//      drift) — a few dozen 10-ms steps of a DTM replay, a whole run near
//      steady state; controllers that toggle between a few settings (LUT,
//      fail-safe chains) hit warm slots. At tolerance 0 the slopes refresh
//      whenever the chip moves, and every such step refactors.
//
//   3. Allocation-free stepping. All workspaces, the per-cell current
//      buffer included, are preallocated; a Cholesky refactorization reuses
//      its slot's lower-band storage and solves run in place, so once the
//      slots are warm the step loop performs zero heap allocations. (The LU
//      fallback allocates its full band; it fires only on
//      non-positive-definite step matrices.)
//
//   4. run_batch fans independent traces across util::ThreadPool. Each
//      trace runs on its own stepper, results are written by job index, and
//      every factor is a pure function of its exact-bits key — so batched
//      results are bit-identical to serial at any thread count.
//
// Exactness contract: for identical inputs (model, workload, options,
// control), TransientEngine produces bit-identical TransientResults —
// samples, final temperatures, step counts, runaway verdicts — to the
// executable specification in tests/thermal/transient_oracle.h, which
// assembles and factors the full step matrix at every step, at any thread
// count and any slope tolerance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "la/banded_factor.h"
#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/transient.h"
#include "util/thread_pool.h"

namespace oftec::thermal {

/// What the post-step runaway verdict inspects.
enum class RunawayCheck {
  kAllNodes,  ///< any node non-finite or above the limit (TransientEngine)
  kChipOnly,  ///< the max chip temperature only (the DTM loop's verdict)
};

/// Allocation-free backward-Euler stepper with factor reuse. One stepper =
/// one integration in flight; it is not thread-safe (TransientEngine keeps a
/// pool of them). The DTM loop drives one directly because its per-step
/// power varies with the trace — power only touches the right-hand side, so
/// factor reuse still applies.
class TransientStepper {
 public:
  struct Config {
    double runaway_temperature = 500.0;  ///< [K]
    /// Relative slope tolerance; see TransientOptions.
    double relinearization_threshold = kDefaultRelinearizationThreshold;
    RunawayCheck runaway_check = RunawayCheck::kAllNodes;
  };

  TransientStepper(const ThermalModel& model,
                   std::vector<power::ExponentialTerm> cell_leakage);
  TransientStepper(const ThermalModel& model,
                   std::vector<power::ExponentialTerm> cell_leakage,
                   Config config);

  /// Re-apply per-run policy without touching the factor cache (factors are
  /// pure functions of their exact-bits key, so cross-run reuse is sound).
  void configure(double runaway_temperature, double relinearization_threshold,
                 RunawayCheck check);

  /// Set the integration state and drop the held slopes (a fresh run always
  /// takes exact slopes at its first step).
  /// Throws std::invalid_argument on arity mismatch.
  void reset(const la::Vector& initial_temperatures);

  /// Advance one backward-Euler step of length `dt` under `setting` with the
  /// given per-cell dynamic power. Returns false — leaving the state
  /// unchanged — when the step matrix is singular or the stepped state fails
  /// the runaway verdict. Throws std::invalid_argument on bad current or
  /// arity.
  [[nodiscard]] bool step(const ControlSetting& setting,
                          const la::Vector& cell_dynamic_power, double dt);

  [[nodiscard]] const la::Vector& temperatures() const noexcept {
    return temps_;
  }
  /// Chip-slab temperatures of the current state (kept in lockstep with
  /// temperatures()).
  [[nodiscard]] const la::Vector& chip_temperatures() const noexcept {
    return chip_;
  }
  /// Max chip temperature of the current state (hoisted, computed once per
  /// step with max_element_value's exact semantics).
  [[nodiscard]] double max_chip_temperature() const noexcept {
    return max_chip_;
  }

  /// Exact exponential leakage power of the current state; bit-equal to
  /// ThermalModel::leakage_power.
  [[nodiscard]] double leakage_power() const;
  /// TEC electrical power of the current state; bit-equal to
  /// ThermalModel::tec_power.
  [[nodiscard]] double tec_power(double current) const;
  /// Sample of the current state at `time` under `setting`.
  [[nodiscard]] TransientSample sample(double time,
                                       const ControlSetting& setting) const;

  [[nodiscard]] std::size_t steps() const noexcept { return n_steps_; }
  [[nodiscard]] std::size_t factorizations() const noexcept {
    return n_factorizations_;
  }
  [[nodiscard]] std::size_t factor_hits() const noexcept {
    return n_factor_hits_;
  }
  [[nodiscard]] std::size_t self_heals() const noexcept {
    return n_self_heals_;
  }
  [[nodiscard]] std::size_t slot_invalidations() const noexcept {
    return n_slot_invalidations_;
  }
  /// Factorizations whose step matrix was not positive definite and took
  /// the pivoted-LU fallback (included in factorizations()).
  [[nodiscard]] std::size_t lu_fallbacks() const noexcept {
    return n_lu_fallbacks_;
  }

 private:
  struct FactorSlot {
    bool used = false;
    std::uint64_t stamp = 0;  ///< LRU recency
    std::uint64_t key_dt = 0;
    std::uint64_t key_omega = 0;
    std::uint64_t key_current = 0;
    std::vector<std::uint64_t> key_slopes;
    la::BandedFactor factor;
  };

  /// Exact leakage at the current state with the held slopes, refreshed
  /// when one drifts past the tolerance (TransientOptions).
  void linearize_leakage();
  /// The model's operating-point stamps, then C/dt, on the diagonal at
  /// diag[i·stride].
  void stamp_step_diagonal(double* diag, std::size_t stride, double omega,
                           double dt) const;
  /// Factor the step matrix into `slot`; false when it is singular.
  [[nodiscard]] bool refactor(FactorSlot& slot, double omega, double dt);
  void assemble_rhs(double omega, const la::Vector& cell_dynamic_power,
                    double dt);
  [[nodiscard]] FactorSlot* find_slot(double omega, double current, double dt);
  [[nodiscard]] FactorSlot& lru_slot();
  void commit(double verdict_max_chip);
  [[nodiscard]] bool verdict(double& max_chip_out);

  const ThermalModel* model_;
  std::vector<power::ExponentialTerm> leakage_;
  Config config_;
  std::size_t n_ = 0;
  std::size_t cells_ = 0;
  std::size_t bw_ = 0;  ///< band half-width k

  // ThermalModel::static_system(), taken once; the matrix is kept as its
  // lower band (la::BandedFactor's staging layout).
  la::Vector base_lower_;
  la::Vector base_rhs_;

  // Step workspaces.
  la::Vector cell_current_;  ///< the step's current on every cell
  la::Vector rhs_;
  la::Vector next_;
  la::Vector temps_;
  la::Vector chip_;
  la::Vector chip_next_;
  mutable la::Vector cold_;  ///< TEC absorb-side temps (filled on demand)
  mutable la::Vector hot_;   ///< TEC reject-side temps
  double max_chip_ = 0.0;

  // Leakage linearization: exact b and t_ref of the current state, held
  // slopes a (their bits are the factor key's slope part).
  std::vector<power::TaylorCoefficients> taylor_;
  la::Vector exact_slope_;
  std::vector<std::uint64_t> key_slopes_;
  bool holding_ = false;

  std::vector<FactorSlot> slots_;
  std::uint64_t lru_stamp_ = 0;

  std::size_t n_steps_ = 0;
  std::size_t n_factorizations_ = 0;
  std::size_t n_factor_hits_ = 0;
  std::size_t n_self_heals_ = 0;
  std::size_t n_slot_invalidations_ = 0;
  std::size_t n_lu_fallbacks_ = 0;
};

/// One independent trace for TransientEngine::run_batch. The control must be
/// self-contained (no shared mutable state with other jobs) — each job may
/// execute on a different pool thread.
struct TransientJob {
  FeedbackControl control;
  la::Vector initial_temperatures;
  TransientOptions options;
};

/// Engine-level counters (aggregated across steppers at run completion).
struct TransientEngineStats {
  std::size_t runs = 0;
  std::size_t steps = 0;
  std::size_t factorizations = 0;
  std::size_t factor_hits = 0;
  std::size_t self_heals = 0;
  std::size_t slot_invalidations = 0;
  std::size_t lu_fallbacks = 0;  ///< factorizations that took the LU fallback
};

/// Transient integration of one model + workload: run()/run_closed_loop()
/// from a given state, plus run_batch for fanning independent traces.
/// Thread-safe: concurrent runs check steppers out of an internal pool (warm
/// factor caches carry across runs).
class TransientEngine {
 public:
  struct Config {
    /// Worker threads for run_batch; 0 = ThreadPool::default_thread_count()
    /// (the OFTEC_THREADS environment variable, else hardware concurrency).
    std::size_t threads = 0;
  };

  TransientEngine(const ThermalModel& model, la::Vector cell_dynamic_power,
                  std::vector<power::ExponentialTerm> cell_leakage,
                  TransientOptions options = {});
  TransientEngine(const ThermalModel& model, la::Vector cell_dynamic_power,
                  std::vector<power::ExponentialTerm> cell_leakage,
                  TransientOptions options, Config config);
  ~TransientEngine();

  TransientEngine(const TransientEngine&) = delete;
  TransientEngine& operator=(const TransientEngine&) = delete;

  [[nodiscard]] const TransientOptions& options() const noexcept {
    return options_;
  }

  /// Integrate under an open-loop schedule (constructor options).
  [[nodiscard]] TransientResult run(
      const ControlSchedule& control,
      const la::Vector& initial_temperatures) const;
  /// Same, with per-run options.
  [[nodiscard]] TransientResult run(const ControlSchedule& control,
                                    const la::Vector& initial_temperatures,
                                    const TransientOptions& options) const;

  /// Closed-loop variant: the controller sees the max chip temperature.
  [[nodiscard]] TransientResult run_closed_loop(
      const FeedbackControl& control,
      const la::Vector& initial_temperatures) const;
  [[nodiscard]] TransientResult run_closed_loop(
      const FeedbackControl& control, const la::Vector& initial_temperatures,
      const TransientOptions& options) const;

  /// All-nodes-at-ambient initial condition.
  [[nodiscard]] la::Vector ambient_state() const;

  /// Run every job and return results in job order. Deterministic and
  /// bit-identical to calling run_closed_loop sequentially, at any thread
  /// count. A job that throws (bad options, out-of-range current) rethrows
  /// here after the batch drains.
  [[nodiscard]] std::vector<TransientResult> run_batch(
      const std::vector<TransientJob>& jobs) const;

  [[nodiscard]] TransientEngineStats stats() const;
  void reset_stats() const;

 private:
  class StepperPool;

  [[nodiscard]] TransientResult run_impl(const FeedbackControl& control,
                                         const la::Vector& initial_temperatures,
                                         const TransientOptions& options) const;

  const ThermalModel* model_;
  la::Vector dynamic_;
  std::vector<power::ExponentialTerm> leakage_;
  TransientOptions options_;
  Config config_;

  std::unique_ptr<StepperPool> steppers_;

  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<util::ThreadPool> pool_;  ///< lazy, for run_batch
};

}  // namespace oftec::thermal
