// Multi-zone TEC control — the natural extension of OFTEC's single shared
// current.
//
// The paper wires every deployed TEC electrically in series ("driven by the
// same current value", Sec. 6.1), so one I_TEC must serve both the hottest
// and the mildest covered region. Partitioning the covered cells into a few
// independently driven zones (integer cluster / FP cluster / remaining core
// area) lets the optimizer starve cool zones of current while feeding the
// hot spot, strictly generalizing Optimization 1:
//
//     min  𝒫(ω, I₁ … I_Z)   s.t.   𝒯(ω, I₁ … I_Z) < T_max, box bounds.
//
// With Z ≤ 3 the decision space stays small enough for the same active-set
// SQP machinery (the exact QP subproblem solver enumerates up to 4-D).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/cooling_system.h"
#include "core/oftec.h"
#include "core/problems.h"
#include "floorplan/floorplan.h"
#include "opt/problem.h"
#include "power/leakage.h"
#include "power/power_map.h"

namespace oftec::core {

/// Assignment of covered cells to electrical zones.
struct ZonePartition {
  /// zone index per grid cell; kUnzoned for uncovered cells.
  std::vector<std::size_t> zone_of_cell;
  std::size_t zone_count = 0;
  std::vector<std::string> zone_names;

  static constexpr std::size_t kUnzoned = static_cast<std::size_t>(-1);

  /// Partition the default TEC coverage into up to three zones by the
  /// dominant functional unit of each cell: the integer cluster ("int"),
  /// the floating-point cluster ("fp"), and everything else ("misc").
  [[nodiscard]] static ZonePartition by_unit_cluster(
      const floorplan::Floorplan& fp, std::size_t nx, std::size_t ny);

  /// One zone spanning the whole default coverage (reduces multi-zone
  /// control to the paper's single-current formulation — used to verify the
  /// generalization is faithful).
  [[nodiscard]] static ZonePartition single_zone(
      const floorplan::Floorplan& fp, std::size_t nx, std::size_t ny);

  /// Expand per-zone currents to a per-cell current vector.
  [[nodiscard]] la::Vector expand(const la::Vector& zone_currents) const;
};

/// Evaluation facade for (ω, I₁…I_Z) points — the multi-zone analogue of
/// CoolingSystem: the same engine options, memo bound and exact gradients.
class MultiZoneSystem {
 public:
  MultiZoneSystem(const floorplan::Floorplan& fp,
                  const power::PowerMap& dynamic_power,
                  const power::LeakageModel& leakage, ZonePartition partition,
                  CoolingSystem::Config config = {});

  [[nodiscard]] const ZonePartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] double t_max() const noexcept;
  [[nodiscard]] double omega_max() const noexcept;
  [[nodiscard]] double current_max() const noexcept;

  /// Evaluate at fan speed ω and per-zone currents (size = zone_count).
  [[nodiscard]] const Evaluation& evaluate(
      double omega, const la::Vector& zone_currents) const;

  /// Exact ∂𝒯 and ∂𝒫 with respect to (ω, I₁ … I_Z), one tangent solve per
  /// entry; see CoolingSystem::gradient.
  [[nodiscard]] EvaluationGradient gradient(
      double omega, const la::Vector& zone_currents) const;

  [[nodiscard]] const thermal::SolveEngine& engine() const noexcept {
    return *engine_;
  }
  /// Fresh nonlinear solves (memo misses and gradient re-solves).
  [[nodiscard]] std::size_t evaluation_count() const { return memo_.solves(); }
  /// Evaluations currently memoized (at most Config::cache_limit).
  [[nodiscard]] std::size_t memo_size() const { return memo_.size(); }

 private:
  /// Validated memo key (ω, I₁ … I_Z).
  [[nodiscard]] std::vector<double> key_of(
      double omega, const la::Vector& zone_currents) const;

  std::unique_ptr<thermal::ThermalModel> model_;
  std::unique_ptr<thermal::SteadySolver> solver_;
  std::unique_ptr<thermal::SolveEngine> engine_;
  ZonePartition partition_;
  mutable PointMemo<std::vector<double>> memo_;
};

/// Optimization-1/2 adapter over a MultiZoneSystem: x = (ω, I₁ … I_Z).
class MultiZoneProblem final : public opt::Problem {
 public:
  using Objective = CoolingProblem::Objective;

  MultiZoneProblem(const MultiZoneSystem& system, Objective objective,
                   bool temperature_constraint, double strictness = 0.01);

  [[nodiscard]] std::size_t dimension() const override;
  [[nodiscard]] std::size_t constraint_count() const override;
  [[nodiscard]] const opt::Bounds& bounds() const override;
  [[nodiscard]] double objective(const la::Vector& x) const override;
  [[nodiscard]] la::Vector constraints(const la::Vector& x) const override;
  /// Exact gradients from MultiZoneSystem::gradient.
  [[nodiscard]] opt::Gradients gradients(const la::Vector& x) const override;

  [[nodiscard]] double omega_of(const la::Vector& x) const;
  [[nodiscard]] la::Vector currents_of(const la::Vector& x) const;
  [[nodiscard]] la::Vector midpoint() const;

 private:
  const MultiZoneSystem* system_;
  Objective objective_;
  bool temperature_constraint_;
  double strictness_;
  opt::Bounds bounds_;
};

/// Multi-zone OFTEC result.
struct MultiZoneResult {
  bool success = false;
  /// Structured outcome, mirroring OftecResult::status: kRunaway is the
  /// definitive "no feasible point", kNotConverged a solver failure.
  SolveStatus status = SolveStatus::kNotConverged;
  bool used_opt2 = false;
  double omega = 0.0;
  la::Vector zone_currents;
  double max_chip_temperature = 0.0;
  CoolingBreakdown power;
  double runtime_ms = 0.0;
  std::size_t thermal_solves = 0;
};

/// Algorithm 1 generalized to (ω, I₁ … I_Z).
[[nodiscard]] MultiZoneResult run_multizone_oftec(
    const MultiZoneSystem& system, const opt::SqpOptions& sqp = {},
    double feasibility_margin = 0.25);

}  // namespace oftec::core
