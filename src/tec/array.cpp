#include "tec/array.h"

#include <stdexcept>

namespace oftec::tec {

TecArray::TecArray(TecDeviceParams params, std::vector<bool> coverage,
                   double cell_area)
    : params_(params) {
  params_.validate();
  if (cell_area <= 0.0) {
    throw std::invalid_argument("TecArray: cell_area must be positive");
  }
  const double m = cell_area / params_.footprint;
  cells_.reserve(coverage.size());
  for (const bool covered : coverage) {
    CellTec cell;
    if (covered) {
      cell.covered = true;
      cell.multiplier = m;
      cell.seebeck = m * params_.seebeck;
      cell.resistance = m * params_.resistance;
      cell.conductance = m * params_.conductance;
    }
    cells_.push_back(cell);
  }
}

const CellTec& TecArray::cell(std::size_t i) const {
  if (i >= cells_.size()) throw std::out_of_range("TecArray::cell");
  return cells_[i];
}

double TecArray::electrical_power(const std::vector<double>& t_cold,
                                  const std::vector<double>& t_hot,
                                  double current) const {
  if (t_cold.size() != cells_.size() || t_hot.size() != cells_.size()) {
    throw std::invalid_argument("TecArray::electrical_power: arity mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellTec& c = cells_[i];
    if (!c.covered) continue;
    const double delta_t = t_hot[i] - t_cold[i];
    acc += c.seebeck * delta_t * current + c.resistance * current * current;
  }
  return acc;
}

}  // namespace oftec::tec
