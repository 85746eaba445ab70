// CoolingSystem: the facade the optimizers drive.
//
// Binds one workload (max dynamic-power map + leakage model) to one package
// on one floorplan, and evaluates the two quantities OFTEC's formulations
// need at a decision point (ω, I₁ … I_Z):
//   𝒯 — maximum chip-layer temperature (Optimization 2 objective,
//        Optimization 1 constraint), +inf in thermal runaway;
//   𝒫 — cooling-related power P_leakage + P_TEC + P_fan (Eq. 10).
// Z is the number of independently driven TEC zones: 0 for a fan-only
// package, 1 by default (the paper's one series current, Sec. 6.1), or the
// zone count of a ZonePartition given in Config::zones (multizone.h).
// Evaluations are memoized: the SQP evaluates 𝒯 and 𝒫 at identical points
// (objective + constraint), and each uncached point costs a full nonlinear
// thermal solve. The optimizers' gradients ∂𝒯/∂(ω, I) and ∂𝒫/∂(ω, I) are
// exact, computed only on request from a few recently converged states, and
// memoized beside their Evaluations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/multizone.h"
#include "floorplan/floorplan.h"
#include "package/package_config.h"
#include "power/leakage.h"
#include "power/power_map.h"
#include "thermal/model.h"
#include "thermal/solve_engine.h"
#include "thermal/steady.h"

namespace oftec::core {

/// Cooling-power breakdown (the three terms of Eq. 10).
struct CoolingBreakdown {
  double leakage = 0.0;  ///< Σ p_leak over chip cells, exact exponential [W]
  double tec = 0.0;      ///< Eq. 3 over the array [W]
  double fan = 0.0;      ///< Eq. 8 [W]

  [[nodiscard]] double total() const noexcept { return leakage + tec + fan; }
};

/// One evaluated operating point.
struct Evaluation {
  bool runaway = false;
  /// Structured solver outcome. runaway=true covers both "physically no
  /// fixed point" (kRunaway) and "the numerics failed" (kNotConverged /
  /// kNumericalError / kSingular); fallback layers branch on the distinction.
  SolveStatus status = SolveStatus::kNotConverged;
  double max_chip_temperature = 0.0;  ///< 𝒯 [K]; +inf when runaway
  CoolingBreakdown power;             ///< valid only when !runaway
  std::size_t solver_iterations = 0;

  /// 𝒫 [K]; +inf when runaway.
  [[nodiscard]] double cooling_power() const noexcept;
};

/// Convert a steady-state solve at fan speed ω into the Evaluation the
/// optimizers consume. This is the one place the 𝒯/𝒫 summary is derived
/// from a SteadyResult — CoolingSystem::evaluate and the serving layer's
/// batched path both call it, so a served response is bit-identical to a
/// direct library call.
[[nodiscard]] Evaluation make_evaluation(const thermal::ThermalModel& model,
                                         const thermal::SteadyResult& result,
                                         double omega);

/// Exact first derivatives of one Evaluation: one entry per decision
/// parameter, ω first, then each TEC current. Every entry is +inf when the
/// point is runaway or its tangent solve failed.
struct EvaluationGradient {
  la::Vector max_chip_temperature;  ///< ∂𝒯/∂p
  la::Vector cooling_power;         ///< ∂𝒫/∂p

  /// The all-+inf gradient of `params` entries.
  [[nodiscard]] static EvaluationGradient unavailable(std::size_t params);
};

/// Differentiate the converged steady state `temperatures` of
/// (ω, cell_current): thermal::SolveEngine::tangents gives ∂T/∂ω and ∂T/∂s
/// along each current direction, chained into ∂𝒯 through the hottest chip
/// cell and into ∂𝒫 through ThermalModel::leakage_power_tangent,
/// ThermalModel::tec_power_tangent and FanModel::power_derivative.
[[nodiscard]] EvaluationGradient make_gradient(
    const thermal::SolveEngine& engine, double omega,
    const la::Vector& cell_current, const la::Vector& temperatures,
    const std::vector<la::Vector>& current_directions);

/// How a PointMemo served its gradient requests.
struct GradientStats {
  std::size_t requests = 0;
  std::size_t memo_hits = 0;   ///< the point's memo entry already held it
  std::size_t state_hits = 0;  ///< differentiated a state from the ring
  std::size_t resolves = 0;    ///< the state had left the ring: re-solved
};

/// Memo of Evaluations by decision point (ω, I₁ … I_Z). Each entry keeps
/// the point's Evaluation and, once asked for, its EvaluationGradient
/// (2·(1 + Z) doubles); it is cleared wholesale when it reaches `limit`
/// entries and holds no node vectors. Beside it, a ring of the kStates most
/// recent fresh solves keeps their converged temperatures, which is where a
/// point's first gradient request finds the state to differentiate.
/// Internally synchronized.
class PointMemo {
 public:
  static constexpr std::size_t kStates = 4;

  explicit PointMemo(std::size_t limit)
      : limit_(std::max<std::size_t>(limit, 1)) {}

  /// The memoized Evaluation at `key` (counted as a hit), or nullptr.
  [[nodiscard]] const Evaluation* find(const la::Vector& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    ++hits_;
    return &it->second.evaluation;
  }

  /// Record a fresh solve at `key` with its converged node temperatures;
  /// returns the memoized Evaluation. The reference stays valid until the
  /// memo next fills up and is cleared.
  const Evaluation& insert(la::Vector key, Evaluation ev,
                           la::Vector temperatures) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++solves_;
    if (!ev.runaway) remember(key, std::move(temperatures));
    return emplace(std::move(key), std::move(ev)).evaluation;
  }

  /// ∂𝒯 and ∂𝒫 at `key` = (ω, I₁ … I_Z), whose per-cell currents are
  /// `cell_current`: one entry for ω and one per current direction. A
  /// gradient already in the point's entry is returned as is; otherwise the
  /// converged state comes from the ring, or, when it has left the ring,
  /// from a re-solve (bit-identical: solves are pure functions of the
  /// point), which is memoized and counted as a solve.
  [[nodiscard]] EvaluationGradient gradient(
      const la::Vector& key, const thermal::SolveEngine& engine,
      const la::Vector& cell_current,
      const std::vector<la::Vector>& directions) {
    const double omega = key.front();
    la::Vector temperatures;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++gradient_stats_.requests;
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second.gradient) {
        ++gradient_stats_.memo_hits;
        return *it->second.gradient;
      }
      for (const auto& [k, t] : states_) {
        if (k == key) {
          temperatures = t;
          break;
        }
      }
    }
    std::optional<Evaluation> resolved;
    if (temperatures.empty()) {
      thermal::SteadyResult sr = engine.solve_cells(omega, cell_current);
      resolved = make_evaluation(engine.solver().model(), sr, omega);
      temperatures = std::move(sr.temperatures);
    }
    const EvaluationGradient g =
        resolved && resolved->runaway
            ? EvaluationGradient::unavailable(1 + directions.size())
            : make_gradient(engine, omega, cell_current, temperatures,
                            directions);

    const std::lock_guard<std::mutex> lock(mutex_);
    if (!resolved) {
      ++gradient_stats_.state_hits;
      // Absent only if the memo was cleared since the point was evaluated.
      const auto it = entries_.find(key);
      if (it != entries_.end()) it->second.gradient = g;
      return g;
    }
    ++gradient_stats_.resolves;
    ++solves_;
    if (!resolved->runaway) remember(key, std::move(temperatures));
    emplace(key, std::move(*resolved)).gradient = g;
    return g;
  }

  [[nodiscard]] std::size_t solves() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return solves_;
  }
  [[nodiscard]] std::size_t hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  [[nodiscard]] GradientStats gradient_stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return gradient_stats_;
  }

 private:
  struct Entry {
    Evaluation evaluation;
    std::optional<EvaluationGradient> gradient;
  };

  // Callers hold mutex_.
  Entry& emplace(la::Vector key, Evaluation ev) {
    if (const auto it = entries_.find(key); it != entries_.end()) {
      return it->second;  // a concurrent solve of the same point got here
    }
    if (entries_.size() >= limit_) entries_.clear();
    return entries_.emplace(std::move(key), Entry{std::move(ev), {}})
        .first->second;
  }
  void remember(const la::Vector& key, la::Vector temperatures) {
    if (states_.size() == kStates) states_.pop_back();
    states_.emplace_front(key, std::move(temperatures));
  }

  std::size_t limit_;
  mutable std::mutex mutex_;
  std::map<la::Vector, Entry> entries_;
  std::deque<std::pair<la::Vector, la::Vector>> states_;  // front = most recent
  std::size_t solves_ = 0;
  std::size_t hits_ = 0;
  GradientStats gradient_stats_;
};

class CoolingSystem {
 public:
  struct Config {
    package::PackageConfig package;  ///< default-constructed → paper_default()
    std::size_t grid_nx = 10;
    std::size_t grid_ny = 10;
    thermal::SteadyOptions steady;
    /// Options for the batched SolveEngine behind evaluate(). In particular
    /// use_iterative=false forces every solve through the cached direct
    /// factorization path (the serving benchmark uses this to surface the
    /// factor cache).
    thermal::EngineOptions engine;
    std::size_t cache_limit = 1 << 14;
    /// TEC placement and wiring: the zoned cells are the covered ones, and
    /// each zone is driven by its own current. Empty → the paper's policy:
    /// every core-majority cell covered, all TECs on one series current.
    /// Must stay empty for packages without TECs.
    std::optional<ZonePartition> zones;

    Config() : package(package::PackageConfig::paper_default()) {}
  };

  /// The floorplan and models are copied/bound; `fp` must outlive the system.
  CoolingSystem(const floorplan::Floorplan& fp,
                const power::PowerMap& dynamic_power,
                const power::LeakageModel& leakage, Config config = {});

  /// Evaluate (memoized) at fan speed ω in [0, ω_max] rad/s and one current
  /// per TEC zone, each in [0, I_max] A (`currents.size()` = zone_count()).
  ///
  /// Solves run through the batched SolveEngine from a fixed initial guess,
  /// so every evaluation is a pure function of (ω, I₁ … I_Z): results are
  /// identical regardless of call order or thread count. Safe to call
  /// concurrently; the returned reference stays valid until the memo cache
  /// overflows `cache_limit` entries and is evicted wholesale — callers
  /// that hold references across that many distinct evaluations must copy.
  [[nodiscard]] const Evaluation& evaluate(double omega,
                                           const la::Vector& currents) const;
  /// The single-current form, for Z ≤ 1: I must be 0 for packages without
  /// TECs. Throws std::logic_error when the system has several zones.
  [[nodiscard]] const Evaluation& evaluate(double omega, double current) const;

  /// Exact ∂𝒯 and ∂𝒫 at (ω, I₁ … I_Z): one entry for ω, then one per zone;
  /// I_z = 0 gives the right derivative. Memoized with the point's
  /// Evaluation; the first request costs one tangent solve per entry
  /// (thermal::SolveEngine::tangents) from the converged state of a recent
  /// evaluate() at the same point. When that state has left the ring, the
  /// point is re-solved, which reproduces it bit for bit and counts in
  /// evaluation_count(). Thread-safe.
  [[nodiscard]] EvaluationGradient gradient(double omega,
                                            const la::Vector& currents) const;
  /// The single-current form, for Z ≤ 1 (see evaluate(double, double)).
  [[nodiscard]] EvaluationGradient gradient(double omega, double current) const;

  [[nodiscard]] double t_max() const noexcept;     ///< [K]
  [[nodiscard]] double ambient() const noexcept;   ///< [K]
  [[nodiscard]] double omega_max() const noexcept; ///< [rad/s]
  [[nodiscard]] double current_max() const noexcept;  ///< [A]; 0 if no TECs
  [[nodiscard]] bool has_tec() const noexcept;
  /// Independently driven TEC zones Z: 0 without TECs, 1 by default.
  [[nodiscard]] std::size_t zone_count() const noexcept {
    return directions_.size();
  }
  /// The per-cell currents the engine solves for: Σ_z I_z·d_z, where the
  /// direction d_z is zone z's indicator, or 1 on every cell for the
  /// default single zone (uncovered cells' currents are never read).
  [[nodiscard]] la::Vector cell_currents(const la::Vector& currents) const;

  [[nodiscard]] const thermal::ThermalModel& thermal_model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const thermal::SteadySolver& solver() const noexcept {
    return *solver_;
  }
  /// The batched engine backing evaluate() — exposed so sweeps can fan
  /// whole operating-point batches without round-tripping the memo cache.
  [[nodiscard]] const thermal::SolveEngine& engine() const noexcept {
    return *engine_;
  }
  /// Per-cell inputs (for transient experiments sharing this workload).
  [[nodiscard]] const la::Vector& cell_dynamic_power() const noexcept;
  [[nodiscard]] const std::vector<power::ExponentialTerm>& cell_leakage()
      const noexcept;

  /// Fresh nonlinear solves (memo misses and gradient re-solves).
  [[nodiscard]] std::size_t evaluation_count() const { return memo_.solves(); }
  [[nodiscard]] std::size_t cache_hits() const { return memo_.hits(); }
  /// Evaluations currently memoized (at most Config::cache_limit).
  [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }
  [[nodiscard]] GradientStats gradient_stats() const {
    return memo_.gradient_stats();
  }

 private:
  /// The validated memo key (ω, I₁ … I_Z).
  [[nodiscard]] la::Vector point_of(double omega,
                                    const la::Vector& currents) const;
  /// (I), or () without TECs, for the single-current forms.
  [[nodiscard]] la::Vector single_current(double current) const;

  std::unique_ptr<thermal::ThermalModel> model_;
  std::unique_ptr<thermal::SteadySolver> solver_;
  std::unique_ptr<thermal::SolveEngine> engine_;
  std::vector<la::Vector> directions_;  ///< ∂(cell currents)/∂I_z
  mutable PointMemo memo_;
};

}  // namespace oftec::core
