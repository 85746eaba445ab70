#include "cluster/router.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "util/fault.h"
#include "util/log.h"
#include "util/obs.h"

namespace oftec::cluster {

namespace {

using serve::ProtocolError;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::TransportError;
namespace json = oftec::util::json;

const fault::Site g_fault_proxy = fault::site("cluster.proxy_write");
const fault::Site g_fault_rehome = fault::site("cluster.rehome_replay");

const obs::Counter g_obs_forwarded = obs::counter("cluster.forwarded");
const obs::Counter g_obs_shed = obs::counter("cluster.shed");
const obs::Counter g_obs_migrations = obs::counter("cluster.migrations");
const obs::Counter g_obs_rehomed = obs::counter("cluster.rehomed");

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Session id carried by a request's params (0 when the type has none).
[[nodiscard]] std::uint64_t session_of(const Request& r) {
  switch (r.type) {
    case RequestType::kSolve:
      return std::get<serve::SolveParams>(r.params).session;
    case RequestType::kControl:
      return std::get<serve::ControlParams>(r.params).session;
    case RequestType::kLut:
      return std::get<serve::LutParams>(r.params).session;
    case RequestType::kTransient:
      return std::get<serve::TransientParams>(r.params).session;
    case RequestType::kUnbind:
      return std::get<serve::SessionParams>(r.params).session;
    case RequestType::kStats:
      return std::get<serve::StatsParams>(r.params).session;
    default:
      return 0;
  }
}

void set_session(Request& r, std::uint64_t session) {
  switch (r.type) {
    case RequestType::kSolve:
      std::get<serve::SolveParams>(r.params).session = session;
      break;
    case RequestType::kControl:
      std::get<serve::ControlParams>(r.params).session = session;
      break;
    case RequestType::kLut:
      std::get<serve::LutParams>(r.params).session = session;
      break;
    case RequestType::kTransient:
      std::get<serve::TransientParams>(r.params).session = session;
      break;
    case RequestType::kUnbind:
      std::get<serve::SessionParams>(r.params).session = session;
      break;
    case RequestType::kStats:
      std::get<serve::StatsParams>(r.params).session = session;
      break;
    default:
      break;
  }
}

/// RAII inflight accounting for one admitted unit of work.
class InflightGuard {
 public:
  InflightGuard(std::atomic<std::uint64_t>& total,
                std::atomic<std::uint64_t>& slot) noexcept
      : total_(total), slot_(slot) {
    total_.fetch_add(1, std::memory_order_relaxed);
    slot_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() {
    total_.fetch_sub(1, std::memory_order_relaxed);
    slot_.fetch_sub(1, std::memory_order_relaxed);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<std::uint64_t>& total_;
  std::atomic<std::uint64_t>& slot_;
};

}  // namespace

Router::Router(RouterOptions options, Supervisor& supervisor)
    : options_(options),
      supervisor_(supervisor),
      ring_(options.ring_virtual_nodes),
      journal_(BindJournal::Options{options.journal_path,
                                    options.journal_compact_threshold}) {
  for (std::uint32_t i = 0; i < supervisor_.worker_count(); ++i) {
    ring_.add_node(i);
  }
  // Preallocated so topology growth never reallocates the atomics the
  // request path touches lock-free.
  slot_inflight_ = std::make_unique<std::atomic<std::uint64_t>[]>(kMaxSlots);
  for (std::size_t i = 0; i < kMaxSlots; ++i) {
    slot_inflight_[i].store(0, std::memory_order_relaxed);
  }
}

Router::~Router() { stop(); }

void Router::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(false, std::memory_order_release);

  // Journal recovery before the listener opens: every previously bound
  // session is resolvable from the first accepted frame. Placement comes
  // from the deterministic ring; materialization on the worker is lazy
  // (worker_session = 0 → bind replay on first use).
  if (journal_.enabled()) {
    const auto recovered = journal_.replay();
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    std::uint64_t max_id = 0;
    for (const auto& [sid, spec] : recovered) {
      auto entry = std::make_shared<SessionEntry>();
      entry->spec = spec;
      {
        const std::lock_guard<std::mutex> ring_lock(ring_mutex_);
        entry->slot = ring_.owner(sid);
      }
      entry->worker_session = 0;
      sessions_.emplace(sid, std::move(entry));
      max_id = std::max(max_id, sid);
    }
    if (!recovered.empty()) {
      next_session_.store(max_id + 1, std::memory_order_relaxed);
      n_recovered_.fetch_add(recovered.size(), std::memory_order_relaxed);
    }
  }

  listener_ = serve::Listener::listen_loopback(options_.port);
  port_ = listener_.port();
  started_at_ = Clock::now();
  acceptor_ = std::thread([this] { acceptor_loop(); });
  log::info("cluster: router listening on 127.0.0.1:", port_, " (",
            supervisor_.worker_count(), " workers)");
}

void Router::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    conns = connections_;
  }
  for (const auto& c : conns) c->socket.shutdown_both();
  for (const auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  {
    // Admin forwarding clients dial worker ports that are about to close.
    const std::lock_guard<std::mutex> lock(topology_mutex_);
    admin_state_.workers.clear();
  }
  running_.store(false, std::memory_order_release);
  log::info("cluster: router stopped (forwarded=", n_forwarded_.load(),
            ", shed=", n_shed_.load(), ", migrations=", n_migrations_.load(),
            ", rehomed=", n_rehomed_.load(), ")");
}

std::size_t Router::session_count() const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::uint32_t Router::owner_slot(std::uint64_t router_session) const {
  const std::lock_guard<std::mutex> lock(ring_mutex_);
  return ring_.owner(router_session);
}

Router::Counters Router::counters() const {
  Counters c;
  c.connections = n_connections_.load(std::memory_order_relaxed);
  c.requests = n_requests_.load(std::memory_order_relaxed);
  c.forwarded = n_forwarded_.load(std::memory_order_relaxed);
  c.shed = n_shed_.load(std::memory_order_relaxed);
  c.migrations = n_migrations_.load(std::memory_order_relaxed);
  c.rehomed = n_rehomed_.load(std::memory_order_relaxed);
  c.recovered = n_recovered_.load(std::memory_order_relaxed);
  c.transport_errors = n_transport_errors_.load(std::memory_order_relaxed);
  c.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  c.journal_write_failures = journal_.write_failures();
  return c;
}

void Router::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    serve::Socket sock = listener_.accept();
    if (!sock.valid()) break;  // listener shut down
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(sock);
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      if (stopping_.load(std::memory_order_acquire)) {
        conn->socket.close();
        break;
      }
      connections_.push_back(conn);
    }
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    conn->thread = std::thread([this, conn] { connection_loop(conn); });
  }
}

void Router::connection_loop(const std::shared_ptr<Connection>& conn) {
  ConnState state;
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    const serve::ReadStatus status = serve::read_frame(
        conn->socket.fd(), payload, options_.max_frame_bytes);
    if (status != serve::ReadStatus::kOk) {
      if (status != serve::ReadStatus::kClosed) {
        n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    n_requests_.fetch_add(1, std::memory_order_relaxed);

    Response response;
    try {
      const Request request =
          serve::decode_request(payload, options_.max_frame_bytes);
      try {
        response = handle(request, state);
      } catch (const std::exception& e) {
        // The per-type handlers map ProtocolError/TransportError already;
        // anything else must cost one request, never the connection.
        response = serve::make_error_response(request.id, serve::kErrInternal,
                                              e.what());
      }
      response.trace_id = request.trace_id;
    } catch (const ProtocolError& e) {
      n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      response = serve::make_error_response(e.id(), e.code(), e.message());
    }
    if (!serve::write_frame(conn->socket.fd(),
                            serve::encode_response(response))) {
      break;
    }
  }
}

Response Router::handle(const Request& request, ConnState& state) {
  // Routed session replies carry the owning worker's timing block
  // unchanged: the worker's stage breakdown. The router's own share is the
  // client-observed time minus total_us.
  const auto routed = [&state](Response response) {
    if (state.worker_timing.present) {
      response.timing = serve::timing_json(state.worker_timing);
    }
    return response;
  };
  state.worker_timing = {};
  switch (request.type) {
    case RequestType::kPing:
      return serve::make_ok_response(request.id, json::Value::object());
    case RequestType::kHealth:
      return handle_health(request);
    case RequestType::kStats:
      return handle_stats(request, state);
    case RequestType::kTrace:
      return handle_trace(request, state);
    case RequestType::kSleep:
      return handle_sleep(request, state);
    case RequestType::kBind:
      return routed(handle_bind(request, state));
    default:
      return routed(handle_session_request(request, state));
  }
}

serve::ResilientClient& Router::worker_client(ConnState& state,
                                              std::uint32_t slot) {
  if (slot >= state.workers.size()) {
    state.workers.resize(slot + 1);  // topology grew since this connection
  }
  auto& client = state.workers[slot];
  if (client == nullptr) {
    serve::ResilientClient::Options copts;
    copts.client.max_frame_bytes = options_.max_frame_bytes;
    copts.client.recv_timeout_ms = options_.forward_timeout_ms;
    copts.retry.max_attempts = options_.forward_attempts;
    // Dead-worker detection + sticky-port respawn takes a few probe
    // intervals; let the backoff ceiling outlast it so a forward usually
    // rides out a restart inside its own retry loop.
    copts.retry.max_backoff_ms = 500.0;
    copts.retry.jitter_seed = 0x726f757465ull + slot;  // per-slot stream
    client = std::make_unique<serve::ResilientClient>(
        supervisor_.port_of(slot), copts);
  }
  return *client;
}

util::json::Value Router::forward(ConnState& state, std::uint32_t slot,
                                  Request request, bool retry_after_recv) {
  if (g_fault_proxy.should_fail()) {
    throw TransportError(TransportError::Kind::kSend,
                         "injected proxy write failure");
  }
  n_forwarded_.fetch_add(1, std::memory_order_relaxed);
  g_obs_forwarded.add();
  serve::ResilientClient& client = worker_client(state, slot);
  state.worker_timing = {};
  try {
    json::Value result = client.call(std::move(request), retry_after_recv);
    state.worker_timing = client.last_timing();
    return result;
  } catch (const ProtocolError&) {
    state.worker_timing = client.last_timing();
    throw;
  }
}

std::optional<Response> Router::admission_check(std::uint64_t id,
                                                std::uint32_t slot) {
  if (stopping_.load(std::memory_order_acquire)) {
    return serve::make_error_response(id, serve::kErrShuttingDown,
                                      "router shutting down",
                                      options_.retry_after_ms);
  }
  const Supervisor::WorkerInfo info = supervisor_.info(slot);
  if (info.port == 0) {
    // Never spawned successfully — nothing to dial yet.
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    g_obs_shed.add();
    return serve::make_error_response(id, serve::kErrOverloaded,
                                      "worker unavailable",
                                      options_.retry_after_ms);
  }
  if (info.state == WorkerState::kCrashLooping ||
      info.state == WorkerState::kRetired) {
    // A crash-looping slot's respawn is gated by supervisor backoff —
    // dialing it would just burn the forward retry budget. Shed with the
    // standard hint; the client's backoff outlives short crash loops.
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    g_obs_shed.add();
    return serve::make_error_response(
        id, serve::kErrOverloaded,
        info.state == WorkerState::kRetired ? "worker retired"
                                            : "worker crash-looping",
        options_.retry_after_ms);
  }

  // Cluster-wide cap: explicit, or the sum of probed worker capacities
  // (unknown capacities contribute nothing, so there is no cap until the
  // first probes land).
  std::size_t max_inflight = options_.max_inflight;
  if (max_inflight == 0) {
    for (const auto& w : supervisor_.snapshot()) {
      max_inflight += static_cast<std::size_t>(w.load.queue_capacity);
    }
  }
  if (max_inflight > 0 &&
      total_inflight_.load(std::memory_order_relaxed) >= max_inflight) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    g_obs_shed.add();
    return serve::make_error_response(id, serve::kErrOverloaded,
                                      "cluster at capacity",
                                      options_.retry_after_ms);
  }

  // Per-worker headroom: shed before the target's admission queue would.
  const std::uint64_t cap = info.load.queue_capacity;
  if (cap > 0) {
    const std::uint64_t projected =
        slot_inflight_[slot].load(std::memory_order_relaxed) +
        info.load.queue_depth;
    if (static_cast<double>(projected) >=
        options_.admission_fraction * static_cast<double>(cap)) {
      n_shed_.fetch_add(1, std::memory_order_relaxed);
      g_obs_shed.add();
      return serve::make_error_response(id, serve::kErrOverloaded,
                                        "worker at capacity",
                                        options_.retry_after_ms);
    }
  }
  return std::nullopt;
}

Response Router::handle_bind(const Request& request, ConnState& state) {
  const std::uint64_t router_session =
      next_session_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t slot = owner_slot(router_session);
  if (auto shed = admission_check(request.id, slot)) return *shed;
  const InflightGuard guard(total_inflight_, slot_inflight_[slot]);

  try {
    json::Value result = forward(state, slot, request, true);
    const serve::BindReply reply = serve::parse_bind_reply(result);

    auto entry = std::make_shared<SessionEntry>();
    entry->spec = std::get<serve::BindParams>(request.params);
    entry->slot = slot;
    entry->worker_session = reply.session;
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.emplace(router_session, std::move(entry));
    }
    journal_.append_bind(router_session,
                         std::get<serve::BindParams>(request.params));
    // The client sees the router's id; the worker-side id never escapes.
    result["session"] = router_session;
    return serve::make_ok_response(request.id, std::move(result));
  } catch (const ProtocolError& e) {
    return serve::make_error_response(request.id, e.code(), e.message(),
                                      e.retry_after_ms());
  } catch (const TransportError& e) {
    n_transport_errors_.fetch_add(1, std::memory_order_relaxed);
    return serve::make_error_response(
        request.id, serve::kErrOverloaded,
        std::string("worker unavailable: ") + e.what(),
        options_.retry_after_ms);
  }
}

void Router::migrate_locked(SessionEntry& entry, ConnState& state) {
  Request bind;
  bind.type = RequestType::kBind;
  bind.params = entry.spec;
  json::Value result = forward(state, entry.slot, std::move(bind), true);
  entry.worker_session = serve::parse_bind_reply(result).session;
  ++entry.gen;
  n_migrations_.fetch_add(1, std::memory_order_relaxed);
  g_obs_migrations.add();
  log::info("cluster: migrated a session to worker ", entry.slot,
            " (worker session ", entry.worker_session, ")");
}

Response Router::handle_session_request(const Request& request,
                                        ConnState& state) {
  const std::uint64_t router_session = session_of(request);
  const std::shared_ptr<SessionEntry> entry = find_session(router_session);
  if (entry == nullptr) {
    if (request.type == RequestType::kUnbind) {
      // Mirror single-node semantics: unbinding an unknown session is an
      // ok response with removed=false, not an error.
      json::Value result = json::Value::object();
      result["removed"] = false;
      return serve::make_ok_response(request.id, std::move(result));
    }
    return serve::make_error_response(
        request.id, serve::kErrUnknownSession,
        "unknown session " + std::to_string(router_session));
  }

  if (request.type == RequestType::kUnbind) {
    // A session that was never materialized on its worker (journal
    // recovery, failed rehome) has nothing worker-side to tear down.
    const std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->worker_session == 0) {
      {
        const std::lock_guard<std::mutex> slock(sessions_mutex_);
        sessions_.erase(router_session);
      }
      journal_.append_unbind(router_session);
      json::Value result = json::Value::object();
      result["removed"] = true;
      return serve::make_ok_response(request.id, std::move(result));
    }
  }

  std::uint32_t admit_slot = 0;
  {
    const std::lock_guard<std::mutex> lock(entry->mu);
    admit_slot = entry->slot;
  }
  if (auto shed = admission_check(request.id, admit_slot)) return *shed;
  const InflightGuard guard(total_inflight_, slot_inflight_[admit_slot]);

  // kTransient mutates worker-side state: never retry an attempt whose
  // fate is unknown (mirrors ResilientClient's rule).
  const bool retry_after_recv = request.type != RequestType::kTransient;

  // Forward; on kErrUnknownSession the worker restarted and lost the
  // session — replay the cached bind and retry with the fresh id. Two
  // attempts suffice: a second unknown-session means the worker died
  // *again* mid-migration, which the client's own retry absorbs. Placement
  // is re-read under the session mutex each attempt, so a concurrent
  // rebalance moves this request to the session's new home.
  try {
    for (int attempt = 0;; ++attempt) {
      Request towork = request;
      std::uint32_t slot = 0;
      std::uint64_t wsid = 0;
      std::uint64_t gen = 0;
      {
        const std::lock_guard<std::mutex> lock(entry->mu);
        if (entry->worker_session == 0) {
          // Lazy rebind: materialize the recovered session before its
          // first real request (throws into the handlers below on failure).
          migrate_locked(*entry, state);
        }
        slot = entry->slot;
        wsid = entry->worker_session;
        gen = entry->gen;
      }
      set_session(towork, wsid);
      try {
        json::Value result =
            forward(state, slot, std::move(towork), retry_after_recv);
        if (request.type == RequestType::kUnbind) {
          {
            const std::lock_guard<std::mutex> lock(sessions_mutex_);
            sessions_.erase(router_session);
          }
          journal_.append_unbind(router_session);
        }
        return serve::make_ok_response(request.id, std::move(result));
      } catch (const ProtocolError& e) {
        if (e.code() != serve::kErrUnknownSession || attempt >= 1) throw;
        const std::lock_guard<std::mutex> lock(entry->mu);
        // Another connection may have migrated (or a rebalance rehomed the
        // session) while we were forwarding — replay only if the placement
        // generation is unchanged. Comparing worker ids is not enough: a
        // restarted worker reuses the same small ids (ABA), which would
        // double-bind the session under a concurrent replay race.
        if (entry->gen == gen) {
          migrate_locked(*entry, state);
        }
      }
    }
  } catch (const ProtocolError& e) {
    return serve::make_error_response(request.id, e.code(), e.message(),
                                      e.retry_after_ms());
  } catch (const TransportError& e) {
    n_transport_errors_.fetch_add(1, std::memory_order_relaxed);
    return serve::make_error_response(
        request.id, serve::kErrOverloaded,
        std::string("worker unavailable: ") + e.what(),
        options_.retry_after_ms);
  }
}

Router::RebalanceReport Router::rebalance_to(HashRing next) {
  // Caller holds topology_mutex_. Snapshot the sessions, flip the ring so
  // new binds land on the new topology, then rehome the delta.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<SessionEntry>>> snap;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    snap.assign(sessions_.begin(), sessions_.end());
  }
  RebalanceReport report;
  report.total_sessions = snap.size();
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_ = std::move(next);
  }
  for (const auto& [sid, entry] : snap) {
    const std::uint32_t new_owner = owner_slot(sid);
    const std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->slot == new_owner) continue;
    ++report.moved;
    const std::uint32_t old_slot = entry->slot;
    const std::uint64_t old_wsid = entry->worker_session;
    // Drain-and-rehome under the session mutex: requests that already read
    // the old placement finish on the old owner (still serving); every
    // request behind this lock sees the new one. Results stay bit-identical
    // because a solve is a pure function of (spec, ω, I).
    try {
      if (g_fault_rehome.should_fail()) {
        throw TransportError(TransportError::Kind::kSend,
                             "injected rehome replay failure");
      }
      Request bind;
      bind.type = RequestType::kBind;
      bind.params = entry->spec;
      json::Value result =
          forward(admin_state_, new_owner, std::move(bind), true);
      entry->worker_session = serve::parse_bind_reply(result).session;
    } catch (const std::exception& e) {
      // The move still happens; materialization falls back to the lazy
      // sentinel and heals on the session's next request.
      entry->worker_session = 0;
      ++report.replay_failures;
      log::warn("cluster: rehome replay to worker ", new_owner,
                " failed (", e.what(), "); session will rebind lazily");
    }
    entry->slot = new_owner;
    ++entry->gen;
    n_rehomed_.fetch_add(1, std::memory_order_relaxed);
    g_obs_rehomed.add();
    if (old_wsid != 0) {
      // Best-effort: free the old owner's registry slot. Failure is
      // harmless — a stale worker-side session idles until that worker
      // restarts or hits its session cap eviction.
      try {
        Request unb;
        unb.type = RequestType::kUnbind;
        serve::SessionParams p;
        p.session = old_wsid;
        unb.params = p;
        (void)forward(admin_state_, old_slot, std::move(unb), true);
      } catch (const std::exception&) {
      }
    }
  }
  return report;
}

Router::RebalanceReport Router::add_worker_slot(std::uint32_t slot) {
  if (slot >= kMaxSlots) {
    throw std::runtime_error("cluster: slot id exceeds Router::kMaxSlots");
  }
  const std::lock_guard<std::mutex> lock(topology_mutex_);
  HashRing next = [&] {
    const std::lock_guard<std::mutex> ring_lock(ring_mutex_);
    return ring_;
  }();
  next.add_node(slot);
  const RebalanceReport report = rebalance_to(std::move(next));
  log::info("cluster: ring extended with worker ", slot, " (",
            report.moved, "/", report.total_sessions, " sessions rehomed)");
  return report;
}

Router::RebalanceReport Router::remove_worker_slot(std::uint32_t slot) {
  const std::lock_guard<std::mutex> lock(topology_mutex_);
  HashRing next = [&] {
    const std::lock_guard<std::mutex> ring_lock(ring_mutex_);
    return ring_;
  }();
  next.remove_node(slot);
  if (next.empty()) {
    throw std::runtime_error("cluster: cannot remove the last worker");
  }
  const RebalanceReport report = rebalance_to(std::move(next));
  // Drain: requests that read their placement before the flip are still
  // completing against the old owner — wait them out so the caller can
  // retire the worker without cutting live requests.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  while (slot_inflight_[slot].load(std::memory_order_relaxed) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  log::info("cluster: ring shrunk by worker ", slot, " (",
            report.moved, "/", report.total_sessions, " sessions rehomed)");
  return report;
}

Response Router::handle_health(const Request& request) {
  serve::HealthReply reply;
  reply.healthy = false;
  reply.accepting = false;
  for (const auto& w : supervisor_.snapshot()) {
    if (w.state == WorkerState::kRetired) continue;
    if (w.state == WorkerState::kAlive || w.state == WorkerState::kDegraded) {
      reply.healthy = true;
    }
    if (w.state == WorkerState::kAlive && w.load.accepting) {
      reply.accepting = true;
    }
    reply.active_sessions += w.load.active_sessions;
    reply.queue_depth += w.load.queue_depth;
    reply.queue_capacity += w.load.queue_capacity;
  }
  if (stopping_.load(std::memory_order_acquire)) reply.accepting = false;
  reply.sessions = session_count();
  reply.uptime_ms = ms_since(started_at_);
  Response r =
      serve::make_ok_response(request.id, serve::health_result_json(reply));
  return r;
}

Response Router::handle_stats(const Request& request, ConnState& state) {
  const auto& params = std::get<serve::StatsParams>(request.params);

  // Resolve an optional session filter to its owning slot + worker id.
  std::uint32_t session_slot = 0;
  std::uint64_t worker_session = 0;
  bool have_session = false;
  if (params.session != 0) {
    if (const auto entry = find_session(params.session)) {
      const std::lock_guard<std::mutex> lock(entry->mu);
      session_slot = entry->slot;
      worker_session = entry->worker_session;
      have_session = true;
    }
  }

  json::Value router = json::Value::object();
  {
    const Counters c = counters();
    router["workers"] = supervisor_.worker_count();
    router["sessions"] = session_count();
    router["inflight"] = total_inflight_.load(std::memory_order_relaxed);
    router["uptime_ms"] = ms_since(started_at_);
    router["connections"] = c.connections;
    router["requests"] = c.requests;
    router["forwarded"] = c.forwarded;
    router["shed"] = c.shed;
    router["migrations"] = c.migrations;
    router["rehomed"] = c.rehomed;
    router["recovered"] = c.recovered;
    router["transport_errors"] = c.transport_errors;
    router["protocol_errors"] = c.protocol_errors;
    router["worker_restarts"] = supervisor_.restarts();
    router["journal_enabled"] = journal_.enabled();
    router["journal_write_failures"] = c.journal_write_failures;
  }

  json::Value workers = json::Value::array();
  for (const auto& w : supervisor_.snapshot()) {
    json::Value entry = json::Value::object();
    entry["slot"] = w.slot;
    entry["port"] = w.port;
    entry["state"] = worker_state_name(w.state);
    entry["restarts"] = w.restarts;
    entry["crash_streak"] = w.consecutive_crashes;
    if (w.last_exit.has_value()) {
      json::Value exit = json::Value::object();
      exit["signaled"] = w.last_exit->signaled;
      exit["value"] = w.last_exit->value;
      entry["last_exit"] = std::move(exit);
    }
    entry["sessions"] = w.load.sessions;
    entry["active_sessions"] = w.load.active_sessions;
    entry["queue_depth"] = w.load.queue_depth;
    entry["queue_capacity"] = w.load.queue_capacity;
    entry["uptime_ms"] = w.load.uptime_ms;
    entry["inflight"] = slot_inflight_[w.slot].load(std::memory_order_relaxed);
    if (w.port != 0 && w.state != WorkerState::kDead &&
        w.state != WorkerState::kCrashLooping &&
        w.state != WorkerState::kRetired) {
      Request fwd;
      fwd.type = RequestType::kStats;
      serve::StatsParams p = params;
      p.session = (have_session && w.slot == session_slot) ? worker_session : 0;
      fwd.params = p;
      try {
        entry["stats"] = forward(state, w.slot, std::move(fwd), true);
      } catch (const std::exception& e) {
        entry["stats_error"] = std::string(e.what());
      }
    }
    workers.push_back(std::move(entry));
  }

  json::Value result = json::Value::object();
  result["cluster"] = true;
  result["router"] = std::move(router);
  result["workers"] = std::move(workers);
  return serve::make_ok_response(request.id, std::move(result));
}

Response Router::handle_trace(const Request& request, ConnState& state) {
  json::Value merged = json::Value::array();
  std::uint64_t dropped = 0;
  for (const auto& w : supervisor_.snapshot()) {
    if (w.port == 0 || w.state == WorkerState::kDead ||
        w.state == WorkerState::kCrashLooping ||
        w.state == WorkerState::kRetired) {
      continue;
    }
    Request fwd;
    fwd.type = RequestType::kTrace;
    fwd.params = std::get<serve::TraceParams>(request.params);
    try {
      json::Value one = forward(state, w.slot, std::move(fwd), true);
      if (const json::Value* arr = one.find("trace");
          arr != nullptr && arr->is_array()) {
        for (const json::Value& ev : arr->as_array()) merged.push_back(ev);
      }
      if (const json::Value* d = one.find("dropped");
          d != nullptr && d->is_number()) {
        dropped += static_cast<std::uint64_t>(d->as_number());
      }
    } catch (const std::exception&) {
      // A worker that cannot be scraped contributes nothing; the dump is
      // advisory.
    }
  }
  json::Value result = json::Value::object();
  result["trace"] = std::move(merged);
  result["count"] = result["trace"].as_array().size();
  result["dropped"] = dropped;
  return serve::make_ok_response(request.id, std::move(result));
}

Response Router::handle_sleep(const Request& request, ConnState& state) {
  // Round-robin over the slots actually on the ring (retired ones are off
  // it, crash-looping ones are shed by admission below).
  std::vector<std::uint32_t> candidates;
  {
    const std::lock_guard<std::mutex> lock(ring_mutex_);
    candidates = ring_.nodes();
  }
  if (candidates.empty()) {
    return serve::make_error_response(request.id, serve::kErrOverloaded,
                                      "no workers", options_.retry_after_ms);
  }
  const std::uint32_t slot = candidates[static_cast<std::size_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed) %
      candidates.size())];
  if (auto shed = admission_check(request.id, slot)) return *shed;
  const InflightGuard guard(total_inflight_, slot_inflight_[slot]);
  try {
    return serve::make_ok_response(request.id,
                                   forward(state, slot, request, true));
  } catch (const ProtocolError& e) {
    return serve::make_error_response(request.id, e.code(), e.message(),
                                      e.retry_after_ms());
  } catch (const TransportError& e) {
    n_transport_errors_.fetch_add(1, std::memory_order_relaxed);
    return serve::make_error_response(
        request.id, serve::kErrOverloaded,
        std::string("worker unavailable: ") + e.what(),
        options_.retry_after_ms);
  }
}

std::shared_ptr<Router::SessionEntry> Router::find_session(
    std::uint64_t router_session) const {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(router_session);
  return it == sessions_.end() ? nullptr : it->second;
}

}  // namespace oftec::cluster
