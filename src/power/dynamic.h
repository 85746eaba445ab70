// Activity-based dynamic power model (the front half of the PTscalar
// substitute).
//
// Dynamic power of a CMOS unit follows P = a · C_eff · V² · f: an activity
// factor per unit, an effective switched capacitance per unit, and the
// chip-wide voltage/frequency point. This module maps (activity vector,
// V/f state) → per-unit PowerMap, giving throttling a physical meaning
// (f scaling → linear; V-f scaling → cubic) and letting users derive
// workloads from microarchitectural activity instead of raw watts.
#pragma once

#include <string_view>
#include <vector>

#include "floorplan/floorplan.h"
#include "power/power_map.h"

namespace oftec::power {

/// Chip-wide voltage/frequency operating point.
struct VfPoint {
  double voltage = 1.0;        ///< [V]
  double frequency_ghz = 3.0;  ///< [GHz]
};

class DynamicPowerModel {
 public:
  /// `effective_capacitance` holds C_eff per block [nF equivalent — any
  /// consistent unit]; power comes out in watts when C_eff is chosen so that
  /// a·C·V²·f(GHz) is in watts (i.e. C_eff in nanofarads).
  DynamicPowerModel(const floorplan::Floorplan& fp,
                    std::vector<double> effective_capacitance,
                    VfPoint nominal = {});

  /// Calibration helper: choose per-block C_eff proportional to block area
  /// (denser switching in core logic via `core_density_ratio`) such that an
  /// all-ones activity vector at the nominal V/f point draws `total_watts`.
  [[nodiscard]] static DynamicPowerModel calibrate(
      const floorplan::Floorplan& fp, double total_watts,
      double core_density_ratio = 2.0, VfPoint nominal = {});

  [[nodiscard]] const floorplan::Floorplan& floorplan() const noexcept {
    return *fp_;
  }
  [[nodiscard]] const VfPoint& nominal() const noexcept { return nominal_; }

  /// Per-unit power for an activity vector (one factor in [0, 1] per block)
  /// at the given V/f point.
  [[nodiscard]] PowerMap power(const std::vector<double>& activity,
                               const VfPoint& vf) const;

  /// Same at the nominal point.
  [[nodiscard]] PowerMap power(const std::vector<double>& activity) const;

  /// Power scale factor of `vf` relative to nominal: (V/V₀)²·(f/f₀).
  [[nodiscard]] double scale_of(const VfPoint& vf) const noexcept;

 private:
  const floorplan::Floorplan* fp_;
  std::vector<double> c_eff_;
  VfPoint nominal_;
};

}  // namespace oftec::power
