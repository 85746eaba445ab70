// oftec::fault — deterministic, seedable fault injection.
//
// Robustness claims are only as good as the failures they were tested
// against. This framework lets tests (and operators reproducing incidents)
// inject failures at *named sites* compiled into the hot paths of the
// solver, linear algebra, thread pool, and serving stack:
//
//   solve_engine.nonconverge   Newton loop reports non-convergence
//   solve_engine.nan           non-finite temperatures escape the solver core
//   solve_engine.factor_corrupt  a cached numeric factor returns garbage
//   solve_engine.alloc_fail    allocation failure at solve entry (bad_alloc)
//   la.cg_stall                CG declines to converge (forces direct path)
//   thread_pool.spawn_fail     a worker thread fails to start (degraded pool)
//   serve.accept_fail          accepted connection is torn down immediately
//   serve.read_error           inbound frame read reports a socket error
//   serve.write_error          outbound frame write fails
//   serve.queue_full           admission queue reports full (load shedding)
//   serve.exec_fault           executor throws mid-request (→ kErrInternal)
//   serve.slow_writer          writer stalls before each frame (slow client)
//   client.send_fail           client-side send fails (transport error)
//   client.recv_fail           client-side receive fails (transport error)
//   cluster.worker_spawn       spawning a cluster worker fails (retried on
//                              the supervisor's probe cadence)
//   cluster.probe_timeout      a worker health probe is treated as timed
//                              out without any I/O
//   cluster.proxy_write        the router's forward to a worker fails
//                              (surfaces as kErrOverloaded + retry_after_ms)
//   cluster.exec_spawn         process-mode fork/exec of a worker child
//                              fails (retried like cluster.worker_spawn)
//   cluster.journal_write      a bind-journal append fails (durability
//                              degrades; serving continues)
//   cluster.rehome_replay      a rebalance bind replay fails (the session
//                              falls back to lazy rebind on first use)
//
// Selection is environment-driven — `OFTEC_FAULT=spec[,spec...]` where each
// spec is `site:rate[:seed]` (rate in [0,1]; site may end in `*` to match a
// prefix, or be `*` for everything) — or programmatic via arm()/disarm_all()
// for tests. Example: OFTEC_FAULT="serve.*:0.1:7,la.cg_stall:0.05".
//
// Decisions are deterministic: site S with seed σ fires on its n-th call iff
// mix(σ, n) < rate·2⁶⁴, where mix is SplitMix64. For a fixed seed and a
// fixed per-thread call order the firing pattern is reproducible; under
// concurrency the *set* of calls that fire depends on interleaving, but the
// firing rate and the determinism of each (site, n) decision do not.
//
// Overhead contract: when nothing is armed, every should_fail() is a single
// relaxed atomic load plus a branch — no locks, no clock reads, no
// allocations (mirrors oftec::obs). Sites register once at static-init time
// through handles; hot paths never touch the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oftec::fault {

namespace detail {
extern std::atomic<bool> g_armed;  // any site has a nonzero rate

struct SiteState {
  std::string name;
  std::atomic<std::uint64_t> threshold{0};  ///< rate · 2⁶⁴ (0 = disarmed)
  std::atomic<std::uint64_t> seed{0};
  std::atomic<std::uint64_t> calls{0};  ///< should_fail() invocations while armed
  std::atomic<std::uint64_t> fires{0};

  [[nodiscard]] bool decide() noexcept;
};
}  // namespace detail

/// True when at least one site is armed. The inline fast path keeps the
/// disabled-mode cost of every injection point to one relaxed load.
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Handle to a named injection site. Value type; a default-constructed
/// handle never fires. Obtain via fault::site() once (static init) and keep.
class Site {
 public:
  Site() = default;

  /// Deterministic decision for this call. False whenever the framework is
  /// globally idle or this site is disarmed.
  [[nodiscard]] bool should_fail() const noexcept {
    if (!armed() || state_ == nullptr) return false;
    return state_->decide();
  }

 private:
  friend Site site(std::string_view name);
  explicit Site(detail::SiteState* state) noexcept : state_(state) {}
  detail::SiteState* state_ = nullptr;  // owned by the registry, never freed
};

/// Register (idempotently) and return a handle for `name`. Sites registered
/// after an arm() whose pattern matches them come up armed.
[[nodiscard]] Site site(std::string_view name);

/// Arm every site matching `pattern` (exact name, `prefix*`, or `*`) at
/// `rate` ∈ [0,1] with `seed`. Also remembered for sites registered later.
/// rate = 0 disarms matching sites. Returns the number of sites matched now.
std::size_t arm(std::string_view pattern, double rate, std::uint64_t seed = 1);

/// Disarm every site and forget remembered patterns. Counters are preserved
/// (use stats() before/after; reset_counters() zeroes them).
void disarm_all();

/// Zero every site's call/fire counters.
void reset_counters();

/// Parse and apply one OFTEC_FAULT-style spec list ("site:rate[:seed],...").
/// Returns false (and arms nothing from the offending spec) on a malformed
/// entry; earlier well-formed entries stay applied.
bool apply_spec(std::string_view spec_list);

struct SiteStats {
  std::string name;
  double rate = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t calls = 0;
  std::uint64_t fires = 0;
};

/// Snapshot of every registered site (armed or not), name-ordered.
[[nodiscard]] std::vector<SiteStats> stats();

/// Fire count for one site (0 when unknown).
[[nodiscard]] std::uint64_t fires(std::string_view name);

}  // namespace oftec::fault
