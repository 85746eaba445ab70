// Cluster front-end router: speaks wire protocol v1 on its own loopback
// port and proxies every request to one of the supervisor's workers, so
// existing clients (and the whole tools/tests surface) talk to a sharded
// cluster without changing a byte of what they send.
//
// Placement. The router owns the session-id namespace: kBind assigns a
// router-side id, hashes it onto the consistent-hash ring (one ring node
// per worker slot), forwards the bind to the owning worker, caches the
// chip spec, and rewrites the reply's `session` to the router id. Every
// later request carrying that session is rewritten to the worker-side id
// and forwarded to the session's current slot — placement is a pure
// function of the router id and the ring topology, so it is reproducible
// across runs and across a router restart.
//
// Migration. A worker restart loses its sessions. The first forward that
// comes back kErrUnknownSession triggers replay: the router re-issues the
// cached bind against the (restarted, same-port) worker, swaps in the new
// worker-side id, and retries the original request. Solves are pure
// functions of (spec, ω, I), so results across a migration are
// bit-identical; transient session *state* is not migrated — a migrated
// transient session restarts from ambient (documented in docs/cluster.md).
// A worker_session of 0 is the lazy-rebind sentinel: the session is known
// (from journal recovery or a failed rehome) but not yet materialized on
// its worker, and the next forward replays the bind first.
//
// Rebalancing. add_worker_slot()/remove_worker_slot() change the ring at
// runtime: the router computes the ownership delta against a copy of the
// ring, flips the new topology in, then drains-and-rehomes each moving
// session — the cached bind is replayed on the new owner under the
// per-session mutex (in-flight requests finish wherever they already read
// their placement), the slot/worker-id pair is swapped atomically, and the
// old worker gets a best-effort unbind. Consistent hashing bounds movement
// to ~sessions/N for a topology change of one node. remove_worker_slot
// additionally waits for the retired slot's router-side inflight to drain
// so the caller can destroy the worker without cutting live requests.
//
// Durability. With RouterOptions::journal_path set, every successful bind
// is appended to a checksummed journal and every unbind tombstoned (see
// journal.h). start() replays it: recovered sessions come back with their
// ring placement and the lazy-rebind sentinel, so a restarted router
// serves every previously bound session without client re-registration.
//
// Admission. Before forwarding work the router sheds deterministically —
// kErrOverloaded with a retry_after_ms hint — when the cluster-wide
// inflight count crosses max_inflight, when the target worker's probed
// queue depth plus the router's own inflight toward it crosses
// admission_fraction of the worker's queue capacity, or when the target
// slot is crash-looping (respawn held back by supervisor backoff).
//
// Aggregation. kPing is answered inline. kHealth summarizes the cluster
// (healthy = any worker alive; depth/capacity summed across workers).
// kStats returns {"router": {...}, "workers": [{slot, port, state, ...,
// stats}]}. kTrace concatenates every worker's exemplar dump so plain
// `oftec_client trace` works unchanged. kSleep round-robins over
// non-retired slots.
//
// Fault sites: cluster.proxy_write — a forward fails as if the worker
// connection broke (surfaces as kErrOverloaded after retries);
// cluster.rehome_replay — a rebalance bind replay fails (the session falls
// back to the lazy-rebind sentinel and heals on first use);
// cluster.journal_write — a journal append fails (durability degrades,
// serving does not).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/journal.h"
#include "cluster/supervisor.h"
#include "serve/protocol.h"
#include "serve/resilient_client.h"
#include "serve/wire.h"

namespace oftec::cluster {

struct RouterOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Router::port())
  std::size_t max_frame_bytes = serve::kDefaultMaxFrameBytes;
  /// Cluster-wide inflight cap; 0 = sum of probed worker queue capacities
  /// (no cap until the first probes land).
  std::size_t max_inflight = 0;
  /// Per-worker shed threshold: shed when router-inflight + probed depth
  /// reaches this fraction of the worker's queue capacity.
  double admission_fraction = 0.9;
  /// Backpressure hint stamped on every shed/unavailable error.
  double retry_after_ms = 25.0;
  /// Receive timeout for one forwarded RPC attempt [ms].
  long forward_timeout_ms = 10000;
  /// Attempts per forward (transport retries inside the ResilientClient).
  int forward_attempts = 4;
  std::size_t ring_virtual_nodes = HashRing::kDefaultVirtualNodes;
  /// Bind journal path; empty = session specs are memory-only (a router
  /// restart strands bound sessions, pre-PR-9 behavior).
  std::string journal_path;
  std::size_t journal_compact_threshold = 64;
  /// How long remove_worker_slot waits for the retired slot's inflight to
  /// drain before giving up and proceeding [ms].
  long drain_timeout_ms = 10000;
};

class Router {
 public:
  /// Hard cap on worker slots (preallocated inflight accounting — lock-free
  /// on the request path while the topology grows at runtime).
  static constexpr std::size_t kMaxSlots = 1024;

  /// `supervisor` must outlive the router and should be started first (the
  /// router reads worker ports and probed load from it).
  Router(RouterOptions options, Supervisor& supervisor);
  ~Router();  ///< implies stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void start();
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Router-side sessions currently bound (cluster-wide).
  [[nodiscard]] std::size_t session_count() const;

  /// Slot a router session id maps to on the ring (placement preview —
  /// also valid for ids that are not bound).
  [[nodiscard]] std::uint32_t owner_slot(std::uint64_t router_session) const;

  /// Outcome of one topology change (the <2/N movement-bound evidence).
  struct RebalanceReport {
    std::size_t total_sessions = 0;  ///< sessions bound when the ring flipped
    std::size_t moved = 0;           ///< sessions whose owner changed
    std::size_t replay_failures = 0; ///< rehomes deferred to lazy rebind
  };

  /// Extend the ring with `slot` (already spawned and probed) and rehome
  /// the sessions it now owns. Safe during live traffic.
  RebalanceReport add_worker_slot(std::uint32_t slot);

  /// Shrink the ring: move every session off `slot`, then wait for the
  /// router's inflight toward it to drain. The caller retires the worker
  /// afterwards. Safe during live traffic.
  RebalanceReport remove_worker_slot(std::uint32_t slot);

  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t forwarded = 0;  ///< requests proxied to a worker
    std::uint64_t shed = 0;       ///< kErrOverloaded from admission control
    std::uint64_t migrations = 0; ///< session replays after a worker restart
    std::uint64_t rehomed = 0;    ///< sessions moved by planned rebalances
    std::uint64_t recovered = 0;  ///< sessions replayed from the journal
    std::uint64_t transport_errors = 0;  ///< forwards dead after retries
    std::uint64_t protocol_errors = 0;
    std::uint64_t journal_write_failures = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  /// One bound session: the cached spec is everything needed to recreate
  /// it on a replacement worker. `mu` serializes migration/rehome and
  /// guards slot + worker_session (worker_session == 0 = lazy rebind).
  /// `gen` counts placement changes: a restarted worker hands out the same
  /// small session ids again, so "did someone migrate while I was
  /// forwarding?" must compare generations, not worker ids (ABA).
  struct SessionEntry {
    serve::BindParams spec;
    std::mutex mu;
    std::uint32_t slot = 0;
    std::uint64_t worker_session = 0;
    std::uint64_t gen = 0;
  };

  /// Per-connection forwarding state: one lazily-connected ResilientClient
  /// per worker slot (clients are not thread-safe; connections are), and
  /// the timing block of the current request's last worker reply.
  struct ConnState {
    std::vector<std::unique_ptr<serve::ResilientClient>> workers;
    serve::TimingInfo worker_timing;
  };

  struct Connection {
    serve::Socket socket;
    std::thread thread;
  };

  void acceptor_loop();
  void connection_loop(const std::shared_ptr<Connection>& conn);

  [[nodiscard]] serve::Response handle(const serve::Request& request,
                                       ConnState& state);
  [[nodiscard]] serve::Response handle_bind(const serve::Request& request,
                                            ConnState& state);
  [[nodiscard]] serve::Response handle_session_request(
      const serve::Request& request, ConnState& state);
  [[nodiscard]] serve::Response handle_health(const serve::Request& request);
  [[nodiscard]] serve::Response handle_stats(const serve::Request& request,
                                             ConnState& state);
  [[nodiscard]] serve::Response handle_trace(const serve::Request& request,
                                             ConnState& state);
  [[nodiscard]] serve::Response handle_sleep(const serve::Request& request,
                                             ConnState& state);

  /// The per-connection client for `slot` (created on first use; sticky
  /// ports make the cached client valid across worker restarts).
  serve::ResilientClient& worker_client(ConnState& state, std::uint32_t slot);

  /// Forward `request` to `slot` through the fault site + retry stack.
  /// Throws ProtocolError / TransportError like Client::call. A worker
  /// reply (ok or ProtocolError) leaves its timing in state.worker_timing.
  util::json::Value forward(ConnState& state, std::uint32_t slot,
                            serve::Request request, bool retry_after_recv);

  /// Admission decision for one unit of work bound for `slot`. Returns an
  /// error response to send (shed), or nullopt to admit.
  [[nodiscard]] std::optional<serve::Response> admission_check(
      std::uint64_t id, std::uint32_t slot);

  /// Replay the cached bind for `entry` on its current slot (worker
  /// restart, lazy rebind). Precondition: caller holds entry.mu.
  void migrate_locked(SessionEntry& entry, ConnState& state);

  /// Shared guts of add/remove_worker_slot: swap in `next` ring, rehome
  /// every session whose owner changed.
  RebalanceReport rebalance_to(HashRing next);

  [[nodiscard]] std::shared_ptr<SessionEntry> find_session(
      std::uint64_t router_session) const;

  RouterOptions options_;
  Supervisor& supervisor_;

  mutable std::mutex ring_mutex_;  ///< guards ring_ (reads on bind path)
  HashRing ring_;

  std::mutex topology_mutex_;  ///< serializes rebalances; guards admin_state_
  ConnState admin_state_;      ///< rehome/unbind forwarding (not per-conn)

  BindJournal journal_;

  serve::Listener listener_;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point started_at_{};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionEntry>> sessions_;
  std::atomic<std::uint64_t> next_session_{1};

  std::atomic<std::uint64_t> total_inflight_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> slot_inflight_;
  std::atomic<std::uint64_t> round_robin_{0};

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_forwarded_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_migrations_{0};
  std::atomic<std::uint64_t> n_rehomed_{0};
  std::atomic<std::uint64_t> n_recovered_{0};
  std::atomic<std::uint64_t> n_transport_errors_{0};
  std::atomic<std::uint64_t> n_protocol_errors_{0};
};

}  // namespace oftec::cluster
