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
// A CoolingSystem built with a ZonePartition (CoolingSystem::Config::zones)
// evaluates these points, and run_oftec runs Algorithm 1 over them. With
// Z ≤ 3 the decision space stays small enough for the same active-set SQP
// machinery (the exact QP subproblem solver enumerates up to 4-D).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"

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
};

}  // namespace oftec::core
