// Transient engine: backward-Euler simulation of the RC network, the one
// transient path in the library.
//
// A step solves (C/dt + M(ω, I, a))·Tₙ₊₁ = C/dt·Tₙ + rhs(ω, I, Tₙ), with the
// leakage linearized on its exact tangent at Tₙ (thermal/transient.h). The
// step matrix is symmetric, and with C/dt on its diagonal positive definite
// away from runaway, so the step runs on the CG path of the steady solves:
//
//   1. Static pattern plus stamps. The model builds its static sparse
//      system once (ThermalModel::static_csr_system); each step copies its
//      values, lets the model stamp the operating point onto the diagonal
//      (ThermalModel::stamp_diagonal, at static_diagonal_positions) and the
//      right-hand side (stamp_rhs), and adds C/dt and C/dt·Tₙ — the way
//      IncrementalAssembler builds the steady system.
//
//   2. Column blocks, refactored every step. The z-column block-Jacobi
//      factor (la/column_jacobi.h, no coarse level: C/dt dominates the
//      lateral coupling) costs O(n) and takes the step's exact slopes, so no
//      factor outlives its step and nothing is cached across steps or runs.
//
//   3. CG on the increment. la::solve_cg solves A·δ = b − A·Tₙ from δ = 0
//      and stops at ‖r‖ ≤ kStepTolerance·‖b − A·Tₙ‖; Tₙ₊₁ = Tₙ + δ. The stop
//      rule is relative to the step's own change, so its error does not
//      grow with C/dt·Tₙ as a rule on ‖b‖ would.
//
//   4. Banded fallback. A non-positive column pivot, an indefinite CG
//      verdict or a stall sends that one step through la::BandedFactor on
//      the assembled band (Cholesky, then pivoted LU): the direct step of
//      tests/thermal/transient_oracle.h. factorizations() counts those
//      steps and lu_fallbacks() the ones that took the LU.
//
//   5. run_batch fans independent traces across util::ThreadPool. Each
//      trace runs on its own stepper and results are written by job index;
//      a step depends on its inputs alone, so batched results are
//      bit-identical to serial at any thread count.
//
// Accuracy contract: away from runaway the engine agrees with the direct
// oracle within the bound stated in tests/thermal/transient_oracle.h on
// every sample and every final node temperature (the stop rule's error
// grows with a step's change and with the step matrix's conditioning, so
// not near a singular one; docs/solver.md). Within one process (one kernel
// backend) a run's result depends only on its inputs, bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "la/column_jacobi.h"
#include "la/iterative.h"
#include "la/vector_ops.h"
#include "power/leakage.h"
#include "thermal/model.h"
#include "thermal/transient.h"
#include "util/thread_pool.h"

namespace oftec::thermal {

/// What the post-step runaway verdict inspects. A step fails it when any
/// inspected temperature is non-finite, at or below 0 K, or above the limit.
enum class RunawayCheck {
  kAllNodes,  ///< every node (TransientEngine)
  kChipOnly,  ///< the chip cells only (the DTM loop's verdict)
};

/// Backward-Euler stepper on the CG path. One stepper = one integration in
/// flight; it is not thread-safe (TransientEngine keeps a pool of them). The
/// DTM loop drives one directly because its per-step power varies with the
/// trace.
class TransientStepper {
 public:
  /// CG stops a step at ‖r‖ ≤ kStepTolerance·‖b − A·Tₙ‖, relative to the
  /// residual of the unchanged state.
  static constexpr double kStepTolerance = 1e-7;

  struct Config {
    double runaway_temperature = 500.0;  ///< [K]
    RunawayCheck runaway_check = RunawayCheck::kAllNodes;
  };

  TransientStepper(const ThermalModel& model,
                   std::vector<power::ExponentialTerm> cell_leakage);
  TransientStepper(const ThermalModel& model,
                   std::vector<power::ExponentialTerm> cell_leakage,
                   Config config);

  /// Re-apply the per-run runaway policy.
  void configure(double runaway_temperature, RunawayCheck check);

  /// Set the integration state. Throws std::invalid_argument on arity
  /// mismatch.
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
  /// CG iterations over all steps.
  [[nodiscard]] std::size_t cg_iterations() const noexcept {
    return n_cg_iterations_;
  }
  /// Steps that took the banded fallback (one factorization each).
  [[nodiscard]] std::size_t factorizations() const noexcept {
    return n_factorizations_;
  }
  /// Factorizations whose step matrix was not positive definite and took
  /// the pivoted-LU fallback (included in factorizations()).
  [[nodiscard]] std::size_t lu_fallbacks() const noexcept {
    return n_lu_fallbacks_;
  }
  /// Always 0: no factor outlives its step.
  [[nodiscard]] std::size_t factor_hits() const noexcept { return 0; }

 private:
  /// Solve the stamped step system by CG into next_; false when the column
  /// factor or CG fails.
  [[nodiscard]] bool solve_cg_step();
  /// Solve the assembled band into next_; false when it is singular.
  [[nodiscard]] bool solve_banded_step(const ControlSetting& setting,
                                       const la::Vector& cell_dynamic_power,
                                       double dt);
  [[nodiscard]] bool verdict(double& max_chip_out);

  const ThermalModel* model_;
  std::vector<power::ExponentialTerm> leakage_;
  Config config_;
  std::size_t n_ = 0;
  std::size_t cells_ = 0;

  // The step system: each step re-stamps its values from the model's
  // static pattern (ThermalModel::static_csr_system).
  CsrSystem system_;
  la::ColumnBlockSymbolic symbolic_;
  la::ColumnBlockJacobi column_;
  la::CgWorkspace cg_;
  la::Vector residual_;  ///< b − A·Tₙ

  // Step state.
  std::vector<power::TaylorCoefficients> taylor_;  ///< tangents at Tₙ
  la::Vector cell_current_;  ///< the step's current on every cell
  la::Vector next_;
  la::Vector temps_;
  la::Vector chip_;
  la::Vector chip_next_;
  mutable la::Vector cold_;  ///< TEC absorb-side temps (filled on demand)
  mutable la::Vector hot_;   ///< TEC reject-side temps
  double max_chip_ = 0.0;

  std::size_t n_steps_ = 0;
  std::size_t n_cg_iterations_ = 0;
  std::size_t n_factorizations_ = 0;
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
  std::size_t cg_iterations = 0;
  std::size_t factorizations = 0;  ///< steps that took the banded fallback
  std::size_t lu_fallbacks = 0;  ///< factorizations that took the LU fallback
};

/// Transient integration of one model + workload: run()/run_closed_loop()
/// from a given state, plus run_batch for fanning independent traces.
/// Thread-safe: concurrent runs check steppers out of an internal pool.
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
