// Reactive TEC controllers from the paper's related work (ref. [5],
// Alexandrov et al., ASP-DAC'12), reimplemented as comparators:
//
//   * ThresholdController — "turns on or off TECs when the temperature goes
//     above or below a certain temperature"; a single trip point, so it
//     chatters when the plant sits near it.
//   * HysteresisController — the "maximum cooling based controller, which
//     uses the hysteresis effect to decrease the number of ON/OFF
//     transitions": separate turn-on and turn-off temperatures.
//
// Both drive the TECs with a constant current when ON (ref. [5]: "TECs are
// supplied with a constant current") and keep the fan at a fixed speed —
// that is precisely the gap OFTEC fills by co-optimizing (ω, I) instead.
#pragma once

#include <cstddef>

#include "thermal/transient.h"

namespace oftec::core {

/// Stateful on/off TEC controller with a hysteresis band. Setting
/// `on_temperature == off_temperature` degenerates to the plain threshold
/// controller of ref. [5].
class HysteresisController {
 public:
  struct Params {
    double omega = 0.0;            ///< fixed fan speed [rad/s]
    double on_current = 0.0;       ///< I_TEC when ON [A]
    double on_temperature = 0.0;   ///< turn ON above this [K]
    double off_temperature = 0.0;  ///< turn OFF below this [K]; ≤ on_temperature
  };

  explicit HysteresisController(const Params& params);

  /// Feedback-control step (bind into TransientEngine::run_closed_loop).
  [[nodiscard]] thermal::ControlSetting control(double time,
                                                double max_chip_temperature);

  /// Adapter producing the std::function form.
  [[nodiscard]] thermal::FeedbackControl as_feedback();

  [[nodiscard]] bool is_on() const noexcept { return on_; }
  /// Number of OFF→ON and ON→OFF transitions so far — ref. [5]'s metric.
  [[nodiscard]] std::size_t switch_count() const noexcept { return switches_; }

 private:
  Params params_;
  bool on_ = false;
  std::size_t switches_ = 0;
};

/// Plain threshold controller: one trip temperature (zero hysteresis band).
[[nodiscard]] HysteresisController make_threshold_controller(
    double omega, double on_current, double trip_temperature);

}  // namespace oftec::core
