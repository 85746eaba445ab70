// Dynamic thermal management loop: trace replay with periodic
// re-optimization.
//
// The paper's deployment story (Sec. 6.2): OFTEC is fast enough (sub-second)
// to run "as an online controlling algorithm", optionally fronted by the
// LUT for instant reactions. This harness closes that loop against the
// transient thermal model:
//
//   every control period:
//     1. reduce the trace window ahead to its per-unit max-power vector;
//     2. obtain (ω, I) — exact OFTEC, or LUT lookup;
//     3. hold the setting while the transient model integrates the *actual*
//        (time-varying) trace power. Each step linearizes the leakage on its
//        exact tangent at the current state and is solved by CG
//        (thermal::TransientStepper).
//
// Reported metrics: temperature envelope, thermal-violation time, average
// cooling power, and control-latency spent in the optimizer.
//
// Degradation layers (failures leave the loop in control, never in doubt):
//   tier 1  the configured policy (exact OFTEC / LUT / static);
//   tier 2  LUT lookup, when a table is available;
//   tier 3  coarse grid-search OFTEC (exhaustive, derivative-free);
//   tier 4  fail-safe: ω = ω_max, I = 0, plus dynamic-power throttling.
// Tiers are tried in order per decision, driven by the structured
// SolveStatus each layer reports — no exception ever escapes a decision.
// Independently, a thermal-runaway watchdog forces the fail-safe tier after
// three consecutive integration steps that are both above T_max and
// non-decreasing, and releases it once the die cools below T_max − 2 K;
// fail-safe halves the dynamic power.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cooling_system.h"
#include "core/lut_controller.h"
#include "core/oftec.h"
#include "floorplan/floorplan.h"
#include "power/leakage.h"
#include "thermal/transient.h"
#include "workload/trace.h"

namespace oftec::core {

/// How the loop obtains its control settings.
enum class DtmPolicy {
  kExactOftec,  ///< run Algorithm 1 every control period
  kLut,         ///< nearest-neighbor lookup in a prebuilt table
  kStatic,      ///< one OFTEC run on the whole-trace max vector, then hold
};

/// Which degradation rung produced a control setting.
enum class ControllerTier {
  kPrimary,     ///< the configured policy succeeded
  kLut,         ///< fell back to the LUT
  kGridSearch,  ///< fell back to coarse grid-search OFTEC
  kFailSafe,    ///< max fan, zero TEC current, dynamic power throttled
};

/// Overall verdict of a DTM run. Honesty invariant: any violation time or
/// fallback activity forbids kOk — a run that ever exceeded T_max (or could
/// not use its primary controller throughout) never reports full health.
enum class ControlStatus {
  kOk,        ///< primary controller throughout, no thermal violation
  kDegraded,  ///< a fallback tier served decisions, or T_max was exceeded
  kFailSafe,  ///< the watchdog forced the fail-safe tier at least once
  kRunaway,   ///< the transient integration diverged even under fail-safe
};

[[nodiscard]] constexpr const char* to_string(ControlStatus s) noexcept {
  switch (s) {
    case ControlStatus::kOk: return "ok";
    case ControlStatus::kDegraded: return "degraded";
    case ControlStatus::kFailSafe: return "fail_safe";
    case ControlStatus::kRunaway: return "runaway";
  }
  return "unknown";
}

struct DtmOptions {
  DtmPolicy policy = DtmPolicy::kExactOftec;
  double control_period = 0.5;  ///< [s] between re-optimizations
  CoolingSystem::Config system;
  OftecOptions oftec;
  /// Required when policy == kLut; with other policies, an optional tier-2
  /// fallback.
  const LutController* lut = nullptr;
  /// Transient integration step [s].
  double time_step = 10e-3;

  /// Grid resolution of the tier-3 grid-search fallback.
  std::size_t fallback_grid_points = 9;
};

struct DtmSample {
  double time = 0.0;
  double max_chip_temperature = 0.0;  ///< [K]
  double omega = 0.0;
  double current = 0.0;
  double cooling_power = 0.0;  ///< leakage + TEC + fan at this instant [W]
  ControllerTier tier = ControllerTier::kPrimary;  ///< rung in charge
};

struct DtmResult {
  std::vector<DtmSample> samples;
  double peak_temperature = 0.0;        ///< [K]
  double violation_time = 0.0;          ///< seconds above T_max
  double average_cooling_power = 0.0;   ///< [W]
  double control_time_ms = 0.0;         ///< total optimizer latency
  std::size_t reoptimizations = 0;
  bool runaway = false;

  ControlStatus status = ControlStatus::kOk;
  std::size_t fallback_decisions = 0;  ///< decisions served below tier 1
  std::size_t watchdog_trips = 0;      ///< fail-safe activations
  double failsafe_time = 0.0;          ///< seconds spent in fail-safe [s]
};

/// Replay `trace` through the transient model under the chosen policy.
/// The loop starts from the steady state of the first control decision.
[[nodiscard]] DtmResult run_dtm_loop(const floorplan::Floorplan& fp,
                                     const workload::PowerTrace& trace,
                                     const power::LeakageModel& leakage,
                                     const DtmOptions& options = {});

}  // namespace oftec::core
