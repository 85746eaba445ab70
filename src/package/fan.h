// Forced-convection fan model (paper Eq. 8).
#pragma once

namespace oftec::package {

/// Cubic fan law P_fan = c·ω³ for laminar airflow, with a hard speed cap.
struct FanModel {
  /// c [W·s³]: depends on air viscous friction, density, and blade radius.
  /// Default is the paper's estimate (from Shin et al. [11]).
  double power_constant = 1.6e-7;
  /// ω_max [rad/s]; the paper uses 524 rad/s = 5000 RPM.
  double max_speed = 524.0;

  /// Electrical power [W] at speed ω [rad/s]. Throws std::invalid_argument
  /// on negative speed; speeds above max_speed are rejected too — callers
  /// must respect constraint (16).
  [[nodiscard]] double power(double omega) const;
  /// dP/dω = 3c·ω² [W·s] over the same speed range as power().
  [[nodiscard]] double power_derivative(double omega) const;

  /// Throws std::invalid_argument if parameters are non-physical.
  void validate() const;
};

}  // namespace oftec::package
