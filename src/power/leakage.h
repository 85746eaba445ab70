// Temperature-dependent leakage power.
//
// Ground truth in the library is the standard exponential model
//   p_leak(T) = p0 · exp(β · (T − T0))                        (per block)
// and the thermal solver uses the paper's Taylor linearization (Eq. 4)
//   p_leak(T) ≈ a · (T − Tref) + b
// whose coefficients are obtained exactly the way Sec. 6.1 describes:
// evaluate the model at 10 temperatures evenly spread over [300 K, 390 K]
// and fit a line by least squares.
#pragma once

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.h"

namespace oftec::power {

/// One exponential leakage term p(T) = p0 · exp(β(T − T0)). The thermal
/// solver carries one of these per grid cell (block leakage distributed by
/// overlap area).
struct ExponentialTerm {
  double p0 = 0.0;   ///< leakage at T0 [W]
  double beta = 0.0; ///< exponential sensitivity [1/K]
  double t0 = 0.0;   ///< reference temperature [K]

  [[nodiscard]] double evaluate(double temperature) const noexcept;
  /// dp/dT = β·p(T) [W/K].
  [[nodiscard]] double derivative(double temperature) const noexcept;
};

/// Linearized leakage for one element: p ≈ a(T − Tref) + b.
struct TaylorCoefficients {
  double a = 0.0;     ///< slope [W/K]
  double b = 0.0;     ///< value at Tref [W]
  double t_ref = 0.0; ///< expansion point [K]

  [[nodiscard]] double evaluate(double temperature) const noexcept {
    return a * (temperature - t_ref) + b;
  }
};

/// Exponential leakage model for all blocks of a floorplan.
class LeakageModel {
 public:
  /// `p0` holds per-block leakage [W] at reference temperature `t0` [K];
  /// `beta` [1/K] is the exponential sensitivity (shared by all blocks —
  /// it is a process property, not a floorplan property).
  LeakageModel(const floorplan::Floorplan& fp, std::vector<double> p0,
               double beta, double t0);

  [[nodiscard]] const floorplan::Floorplan& floorplan() const noexcept {
    return *fp_;
  }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] double t0() const noexcept { return t0_; }
  [[nodiscard]] const std::vector<double>& p0() const noexcept { return p0_; }

  /// Exact per-block leakage at temperature T [K].
  [[nodiscard]] double block_leakage(std::size_t block, double t) const;

  /// Total chip leakage with every block at a uniform temperature.
  [[nodiscard]] double total_leakage(double t) const;

  /// Paper's calibration flow: sample the exponential at `samples`
  /// temperatures evenly covering [t_lo, t_hi], least-squares a line, and
  /// re-center it at `t_ref`. Defaults are the paper's 10 points over
  /// [300 K, 390 K].
  [[nodiscard]] TaylorCoefficients linearize_block(std::size_t block,
                                                   double t_ref,
                                                   double t_lo = 300.0,
                                                   double t_hi = 390.0,
                                                   std::size_t samples = 10) const;

  /// Linearize every block at the same reference temperature.
  [[nodiscard]] std::vector<TaylorCoefficients> linearize_all(
      double t_ref, double t_lo = 300.0, double t_hi = 390.0,
      std::size_t samples = 10) const;

 private:
  const floorplan::Floorplan* fp_;
  std::vector<double> p0_;
  double beta_;
  double t0_;
};

/// Chord linearization of an exponential term: sample at `samples` points
/// evenly covering [t_lo, t_hi], least-squares a line, re-center at t_ref.
/// This is the paper's Sec. 6.1 calibration applied to one element.
[[nodiscard]] TaylorCoefficients chord_linearize(const ExponentialTerm& term,
                                                 double t_ref,
                                                 double t_lo = 300.0,
                                                 double t_hi = 390.0,
                                                 std::size_t samples = 10);

/// Exact tangent linearization at t_ref (first-order Taylor); used by the
/// Newton outer loop of the steady-state solver.
[[nodiscard]] TaylorCoefficients tangent_linearize(const ExponentialTerm& term,
                                                   double t_ref) noexcept;

}  // namespace oftec::power
