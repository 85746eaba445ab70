// TEC array deployment over a thermal grid.
//
// The chip surface is tiled with TEC units, one tile per covered grid cell,
// all wired electrically in series (every unit carries the same I_TEC,
// Sec. 6.1). A cell of area A holds m = A / footprint units; m units in
// series on one cell scale α, K, and R linearly (thermally parallel,
// electrically series), which is exactly the N-multiplier of Eqs. (1)–(2).
#pragma once

#include <cstddef>
#include <vector>

#include "tec/device.h"

namespace oftec::tec {

/// Per-cell effective device parameters (unit parameters times the cell's
/// device multiplier m).
struct CellTec {
  bool covered = false;
  double multiplier = 0.0;  ///< m: number of units on this cell (fractional ok)
  double seebeck = 0.0;     ///< m·α  [V/K]
  double resistance = 0.0;  ///< m·R  [Ω]
  double conductance = 0.0; ///< m·K  [W/K]
};

class TecArray {
 public:
  /// Deploy units on the cells flagged in `coverage`; every covered cell has
  /// area `cell_area` [m²].
  TecArray(TecDeviceParams params, std::vector<bool> coverage,
           double cell_area);

  [[nodiscard]] const TecDeviceParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] const CellTec& cell(std::size_t i) const;

  /// Total electrical power at driving current `current` given per-cell
  /// cold/hot temperatures (Eq. 3 summed over the array). Vectors are indexed
  /// by cell; entries for uncovered cells are ignored.
  [[nodiscard]] double electrical_power(const std::vector<double>& t_cold,
                                        const std::vector<double>& t_hot,
                                        double current) const;

 private:
  TecDeviceParams params_;
  std::vector<CellTec> cells_;
};

}  // namespace oftec::tec
