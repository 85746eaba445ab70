// Chip sessions: the server-side state a client binds once and then drives
// with cheap per-request control queries.
//
// A Session owns the full evaluation stack for one workload-on-package
// binding — floorplan, leakage model, CoolingSystem (thermal model + batched
// SolveEngine), optionally a pre-trained LUT controller and a transient
// integrator state. Binding is the expensive step (model assembly, and LUT
// training runs OFTEC once per training workload); everything afterwards
// reuses the session's caches, which is what makes request coalescing pay:
// concurrent solves against one session share the engine's factorization
// cache and thread pool.
//
// Thread-safety: solve/control/lut paths only touch the internally
// synchronized CoolingSystem/SolveEngine and are safe from any thread.
// The transient state is serialized by a per-session mutex (it is a
// stateful integration — concurrent steps would be meaningless).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cooling_system.h"
#include "core/lut_controller.h"
#include "floorplan/floorplan.h"
#include "power/leakage.h"
#include "serve/protocol.h"
#include "thermal/transient_engine.h"

namespace oftec::serve {

class Session {
 public:
  /// Builds the full stack for `params`. Throws ProtocolError(kErrBadRequest)
  /// on unknown benchmark names, power vectors of the wrong length, etc.
  Session(std::uint64_t id, const BindParams& params);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const core::CoolingSystem& system() const noexcept {
    return *system_;
  }
  /// nullptr when the bind requested no LUT training.
  [[nodiscard]] const core::LutController* lut() const noexcept {
    return lut_.get();
  }
  [[nodiscard]] const floorplan::Floorplan& floorplan() const noexcept {
    return floorplan_;
  }

  /// Range-check a requested operating point (mirrors
  /// CoolingSystem::evaluate's preconditions without throwing
  /// std::invalid_argument across the protocol boundary).
  [[nodiscard]] bool point_in_range(double omega, double current) const;

  /// Advance the session's transient state by params.duration_s under a
  /// constant (ω, I). Serialized per session.
  [[nodiscard]] TransientReply transient_step(const TransientParams& params);

  /// The bind response payload.
  [[nodiscard]] BindReply describe() const;

  /// Per-session request counters, surfaced through the kStats session
  /// block. Plain atomics on the session object (NOT dynamic obs metric
  /// names: the obs registry is process-lifetime, so per-session names
  /// would be unbounded cardinality on a long-lived server).
  struct Activity {
    std::atomic<std::uint64_t> solves{0};
    std::atomic<std::uint64_t> controls{0};
    std::atomic<std::uint64_t> luts{0};
    std::atomic<std::uint64_t> transients{0};
  };
  [[nodiscard]] Activity& activity() noexcept { return activity_; }
  [[nodiscard]] const Activity& activity() const noexcept {
    return activity_;
  }

 private:
  Activity activity_;
  std::uint64_t id_;
  floorplan::Floorplan floorplan_;
  power::LeakageModel leakage_;
  std::unique_ptr<core::CoolingSystem> system_;
  std::unique_ptr<core::LutController> lut_;

  std::mutex transient_mutex_;
  /// Lazy fast path for transient_step: the engine's warm factor cache makes
  /// repeated steps at a held (ω, I, dt) reuse one banded factorization
  /// across requests (bit-identical to refactoring at every step).
  std::unique_ptr<thermal::TransientEngine> transient_engine_;
  la::Vector transient_state_;  ///< node temperatures; empty = start fresh
  double transient_time_ = 0.0;
};

/// Server-global id → session map. All methods are thread-safe.
class SessionRegistry {
 public:
  explicit SessionRegistry(std::size_t max_sessions)
      : max_sessions_(max_sessions) {}

  /// Create a session. Throws ProtocolError(kErrOverloaded) at the session
  /// cap, or whatever Session's constructor throws.
  [[nodiscard]] std::shared_ptr<Session> create(const BindParams& params);

  /// nullptr when the id is unknown.
  [[nodiscard]] std::shared_ptr<Session> find(std::uint64_t id) const;

  bool erase(std::uint64_t id);

  [[nodiscard]] std::size_t size() const;

  /// Sessions that have served at least one request (any type) — the
  /// "active" load signal the extended kHealth reply carries so a cluster
  /// prober can tell hot workers from ones merely holding idle binds.
  [[nodiscard]] std::size_t active_count() const;

 private:
  const std::size_t max_sessions_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace oftec::serve
