#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/oftec.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/obs.h"

namespace oftec::serve {

namespace {

using Clock = std::chrono::steady_clock;

const obs::Counter g_obs_requests = obs::counter("serve.requests");
const obs::Counter g_obs_shed = obs::counter("serve.shed");
const obs::Counter g_obs_deadline = obs::counter("serve.deadline_expired");
const obs::Counter g_obs_dedup = obs::counter("serve.dedup_hits");
const obs::Counter g_obs_batches = obs::counter("serve.batches");
const obs::Counter g_obs_protocol_errors =
    obs::counter("serve.protocol_errors");
const obs::Gauge g_obs_queue_depth = obs::gauge("serve.queue_depth");
const obs::Histogram g_obs_batch_size = obs::histogram(
    "serve.batch_size_points", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
const obs::Histogram g_obs_latency = obs::histogram(
    "serve.e2e_latency_us", obs::exponential_bounds(10.0, 4.0, 12));

// Stage-attribution histograms: the e2e latency of every queued request is
// decomposed into admission-queue wait, batch-formation wait, and handler
// execution; writer flush time is attributed per frame. Stable names — the
// cluster router (ROADMAP) aggregates these across workers.
const obs::Histogram g_obs_queue_wait = obs::histogram(
    "serve.queue_wait_us", obs::exponential_bounds(1.0, 4.0, 14));
const obs::Histogram g_obs_batch_wait = obs::histogram(
    "serve.batch_wait_us", obs::exponential_bounds(1.0, 4.0, 14));
const obs::Histogram g_obs_solve = obs::histogram(
    "serve.solve_us", obs::exponential_bounds(10.0, 4.0, 12));
const obs::Histogram g_obs_write = obs::histogram(
    "serve.write_us", obs::exponential_bounds(1.0, 4.0, 14));

// Per-type request counters for the executed (queued) request types.
const obs::Counter g_obs_req_solve = obs::counter("serve.requests.solve");
const obs::Counter g_obs_req_bind = obs::counter("serve.requests.bind");
const obs::Counter g_obs_req_control = obs::counter("serve.requests.control");
const obs::Counter g_obs_req_lut = obs::counter("serve.requests.lut");
const obs::Counter g_obs_req_transient =
    obs::counter("serve.requests.transient");

// Fault-injection sites (inert unless armed via OFTEC_FAULT / fault::arm).
// Each one exercises a degradation path that real infrastructure hits:
// transient accept() failures, socket-level read/write errors, a saturated
// admission queue, an executor that throws, and a writer that stalls.
const fault::Site g_fault_accept = fault::site("serve.accept_fail");
const fault::Site g_fault_read = fault::site("serve.read_error");
const fault::Site g_fault_write = fault::site("serve.write_error");
const fault::Site g_fault_queue_full = fault::site("serve.queue_full");
const fault::Site g_fault_exec = fault::site("serve.exec_fault");
const fault::Site g_fault_slow_writer = fault::site("serve.slow_writer");
const fault::Site g_fault_stats = fault::site("serve.stats_rpc");

/// Microseconds between two stage stamps; 0 when either stage was never
/// reached (default-constructed time_point) or the clock stepped backwards.
[[nodiscard]] double stage_us(Clock::time_point from,
                              Clock::time_point to) noexcept {
  if (from == Clock::time_point{} || to == Clock::time_point{} || to < from) {
    return 0.0;
  }
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                 .count()) /
         1000.0;
}

}  // namespace

/// Per-connection state. The reader thread decodes and admits requests; the
/// writer thread drains `outbound` so a slow client never blocks the
/// batcher's caller for long. `inflight` counts requests admitted to the
/// central queue whose responses have not been enqueued yet: the outbound
/// queue closes (letting the writer exit) only once the reader is done AND
/// no in-flight response can still arrive.
struct Server::Connection {
  explicit Connection(std::size_t outbound_capacity)
      : outbound(outbound_capacity) {}

  Socket socket;
  BoundedQueue<std::string> outbound;
  std::thread reader;
  std::thread writer;

  std::mutex mutex;
  std::size_t inflight = 0;
  bool reader_done = false;

  void begin_request() {
    const std::lock_guard<std::mutex> lock(mutex);
    ++inflight;
  }

  void end_request() {
    bool close_now = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      --inflight;
      close_now = reader_done && inflight == 0;
    }
    if (close_now) outbound.close();
  }

  void mark_reader_done() {
    bool close_now = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      reader_done = true;
      close_now = inflight == 0;
    }
    if (close_now) outbound.close();
  }

  void send(const Response& response) {
    (void)outbound.push(encode_response(response));
  }
};

Server::Server(ServerOptions options)
    : options_(options),
      registry_(options.max_sessions),
      queue_(std::make_unique<BoundedQueue<Pending>>(
          options.max_queue_depth)) {}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = Listener::listen_loopback(options_.port);
  port_ = listener_.port();
  started_at_ = Clock::now();
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  batcher_ = std::thread([this] { batcher_loop(); });
  if (options_.ready_fd >= 0) {
    // Readiness handshake: the supervising parent blocks on this pipe; the
    // closed fd doubles as a liveness signal (EOF without PORT = bad start).
    const std::string line = "PORT " + std::to_string(port_) + "\n";
    ssize_t r;
    do {
      r = ::write(options_.ready_fd, line.data(), line.size());
    } while (r < 0 && errno == EINTR);
    ::close(options_.ready_fd);
    options_.ready_fd = -1;
  }
  log::info("serve: listening on 127.0.0.1:", port_,
            " (batch<=", options_.max_batch_size,
            ", queue<=", options_.max_queue_depth, ")");
}

void Server::stop() {
  const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // 1. No new connections.
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Unblock every reader; in-socket bytes may be discarded, but nothing
  //    admitted to the queue is lost.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    conns = connections_;
  }
  for (const auto& c : conns) c->socket.shutdown_read();
  for (const auto& c : conns) {
    if (c->reader.joinable()) c->reader.join();
  }

  // 3. Drain: pushes now fail (readers are gone anyway); the batcher keeps
  //    popping until the queue is empty, answering everything admitted.
  queue_->close();
  if (batcher_.joinable()) batcher_.join();

  // 4. Writers exit once their outbound queues close-and-drain (triggered
  //    by reader_done + last end_request above).
  for (const auto& c : conns) {
    if (c->writer.joinable()) c->writer.join();
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  running_.store(false, std::memory_order_release);
  log::info("serve: stopped (completed=", n_completed_.load(),
            ", shed=", n_shed_.load(), ")");
}

Server::Counters Server::counters() const {
  Counters c;
  c.connections = n_connections_.load(std::memory_order_relaxed);
  c.requests = n_requests_.load(std::memory_order_relaxed);
  c.admitted = n_admitted_.load(std::memory_order_relaxed);
  c.completed = n_completed_.load(std::memory_order_relaxed);
  c.shed = n_shed_.load(std::memory_order_relaxed);
  c.deadline_expired = n_deadline_.load(std::memory_order_relaxed);
  c.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  c.batches = n_batches_.load(std::memory_order_relaxed);
  c.batched_points = n_batched_points_.load(std::memory_order_relaxed);
  c.dedup_hits = n_dedup_hits_.load(std::memory_order_relaxed);
  return c;
}

void Server::acceptor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Socket sock = listener_.accept();
    if (!sock.valid()) break;  // listener shut down
    if (g_fault_accept.should_fail()) {
      // A transient accept()-level failure (EMFILE, aborted handshake) must
      // cost one connection, never the acceptor thread.
      log::warn("serve: injected accept failure, refusing one connection");
      sock.close();
      continue;
    }
    auto conn = std::make_shared<Connection>(options_.max_queue_depth + 64);
    conn->socket = std::move(sock);
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      if (stopping_.load(std::memory_order_acquire)) {
        // Raced with stop(): it already snapshotted `connections_`, so this
        // connection would never be joined — refuse it instead.
        conn->socket.close();
        break;
      }
      connections_.push_back(conn);
    }
    n_connections_.fetch_add(1, std::memory_order_relaxed);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string payload;
  while (true) {
    ReadStatus status =
        read_frame(conn->socket.fd(), payload, options_.max_frame_bytes);
    if (status == ReadStatus::kOk && g_fault_read.should_fail()) {
      status = ReadStatus::kError;  // as if recv() itself had failed
    }
    if (status == ReadStatus::kClosed) break;
    if (status != ReadStatus::kOk) {
      // Framing is broken (truncated/oversized/error): the stream position
      // is ambiguous, so drop the connection.
      n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      g_obs_protocol_errors.add();
      log::debug("serve: dropping connection on framing error");
      break;
    }

    n_requests_.fetch_add(1, std::memory_order_relaxed);
    g_obs_requests.add();

    const Clock::time_point decode_start = Clock::now();
    Request request;
    try {
      request = decode_request(payload, options_.max_frame_bytes);
    } catch (const ProtocolError& e) {
      n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      g_obs_protocol_errors.add();
      conn->send(make_error_response(e.id(), e.code(), e.message()));
      continue;
    }
    const Clock::time_point decode_end = Clock::now();

    if (handle_inline(request, conn)) continue;

    if (!options_.enable_test_requests &&
        request.type == RequestType::kSleep) {
      conn->send(make_error_response(request.id, kErrUnknownType,
                                     "sleep requests are disabled"));
      continue;
    }

    Pending item;
    item.request = std::move(request);
    item.connection = conn;
    item.decode_us = stage_us(decode_start, decode_end);
    item.arrival = decode_end;
    item.deadline =
        item.request.deadline_ms > 0.0
            ? item.arrival + std::chrono::microseconds(static_cast<long long>(
                                 item.request.deadline_ms * 1000.0))
            : Clock::time_point::max();

    const std::uint64_t id = item.request.id;
    conn->begin_request();
    const bool forced_shed = g_fault_queue_full.should_fail();
    if (!forced_shed && queue_->try_push(std::move(item))) {
      n_admitted_.fetch_add(1, std::memory_order_relaxed);
      g_obs_queue_depth.set(static_cast<double>(queue_->size()));
      continue;
    }
    conn->end_request();
    const bool closing = queue_->closed();
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    g_obs_shed.add();
    conn->send(make_error_response(
        id, closing ? kErrShuttingDown : kErrOverloaded,
        closing ? "server is shutting down" : "admission queue is full",
        options_.shed_retry_after_ms));
  }
  conn->mark_reader_done();
}

void Server::writer_loop(const std::shared_ptr<Connection>& conn) {
  while (auto message = conn->outbound.pop()) {
    if (g_fault_slow_writer.should_fail()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    bool write_ok;
    if (g_fault_write.should_fail()) {
      write_ok = false;
    } else if (obs::enabled()) {
      const Clock::time_point t0 = Clock::now();
      write_ok = write_frame(conn->socket.fd(), *message);
      g_obs_write.observe(stage_us(t0, Clock::now()));
    } else {
      write_ok = write_frame(conn->socket.fd(), *message);
    }
    if (!write_ok) {
      // Peer is gone. Close the outbound queue immediately so every
      // blocked or future send() fails fast instead of waiting for queue
      // space that will never free up — otherwise a crashed client with a
      // backlog of undeliverable replies wedges the batcher (and a reader
      // parked in an inline-reply push) forever. Then discard whatever was
      // already queued so end_request's close-on-last-response still finds
      // the queue drained.
      conn->outbound.close();
      while (conn->outbound.pop().has_value()) {
      }
      break;
    }
  }
  // FIN the peer once every response is flushed (or undeliverable) — clients
  // of a dropped connection see EOF instead of hanging. Also unblocks a
  // reader still parked in recv() after a framing error on our side.
  conn->socket.shutdown_both();
}

bool Server::handle_inline(const Request& request,
                           const std::shared_ptr<Connection>& conn) {
  Response response;
  switch (request.type) {
    case RequestType::kPing:
      response = make_ok_response(request.id, util::json::Value::object());
      break;
    case RequestType::kStats:
      response = handle_stats(request);
      break;
    case RequestType::kTrace:
      response = handle_trace(request);
      break;
    case RequestType::kUnbind: {
      const auto& params = std::get<SessionParams>(request.params);
      const bool removed = registry_.erase(params.session);
      util::json::Value result = util::json::Value::object();
      result["removed"] = removed;
      response = make_ok_response(request.id, std::move(result));
      break;
    }
    case RequestType::kHealth: {
      HealthReply reply;
      reply.healthy = true;  // the reader answered, so the pipeline is up
      const std::size_t depth = queue_->size();
      reply.accepting = !stopping_.load(std::memory_order_acquire) &&
                        !queue_->closed() && depth < queue_->capacity();
      reply.sessions = registry_.size();
      reply.active_sessions = registry_.active_count();
      reply.queue_depth = depth;
      reply.queue_capacity = queue_->capacity();
      reply.uptime_ms = stage_us(started_at_, Clock::now()) / 1000.0;
      response = make_ok_response(request.id, health_result_json(reply));
      break;
    }
    default:
      return false;
  }
  response.trace_id = request.trace_id;
  conn->send(response);
  return true;
}

Response Server::handle_stats(const Request& request) {
  namespace json = util::json;
  const auto& params = std::get<StatsParams>(request.params);
  if (g_fault_stats.should_fail()) {
    // The scrape path must be allowed to fail without touching anything the
    // solve pipeline reads — chaos tests assert solves stay bit-identical.
    return make_error_response(request.id, kErrInternal,
                               "injected stats failure");
  }

  obs::Snapshot now_snap = obs::snapshot();
  obs::Snapshot view;
  bool is_delta = false;
  if (params.view == "delta" && params.cursor != 0) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    const auto it = stats_cursors_.find(params.cursor);
    // Same epoch required: a reset_stats() between the two scrapes makes a
    // subtraction meaningless, so degrade to a full snapshot (delta:false)
    // and let the scraper re-baseline on the fresh cursor.
    if (it != stats_cursors_.end() && it->second.epoch == now_snap.epoch) {
      view = obs::delta(it->second, now_snap);
      is_delta = true;
    }
  }
  if (!is_delta) view = now_snap;

  std::uint64_t cursor = 0;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    cursor = next_stats_cursor_++;
    stats_cursors_[cursor] = std::move(now_snap);
    while (stats_cursors_.size() > kMaxStatsCursors) {
      stats_cursors_.erase(stats_cursors_.begin());  // evict oldest token
    }
  }

  if (params.format == "prometheus") {
    json::Value result = json::Value::object();
    result["format"] = json::Value("prometheus");
    result["content_type"] = json::Value("text/plain; version=0.0.4");
    result["text"] = json::Value(obs::prometheus_text(view));
    result["cursor"] = cursor;
    result["delta"] = is_delta;
    return make_ok_response(request.id, std::move(result));
  }
  json::Value root = stats_json(params.session);
  root["obs"] = obs::snapshot_json(view);
  root["cursor"] = cursor;
  root["delta"] = is_delta;
  return make_ok_response(request.id, std::move(root));
}

Response Server::handle_trace(const Request& request) {
  namespace json = util::json;
  const auto& params = std::get<TraceParams>(request.params);
  constexpr std::uint64_t kMaxTraceLimit = 256;
  const std::uint64_t limit =
      params.limit == 0 ? kMaxTraceLimit
                        : std::min(params.limit, kMaxTraceLimit);

  std::vector<obs::Exemplar> filtered;
  for (obs::Exemplar& e : obs::exemplars()) {
    if (!params.trace_id.empty() && e.trace_id != params.trace_id) continue;
    filtered.push_back(std::move(e));
  }
  if (filtered.size() > limit) {
    // Keep the newest (exemplars() returns oldest first).
    filtered.erase(filtered.begin(),
                   filtered.end() - static_cast<std::ptrdiff_t>(limit));
  }

  const obs::ExemplarRingStats rs = obs::exemplar_ring_stats();
  json::Value ring = json::Value::object();
  ring["captured"] = rs.captured;
  ring["dropped"] = rs.dropped;
  ring["capacity"] = rs.capacity;

  json::Value result = json::Value::object();
  result["count"] = static_cast<std::uint64_t>(filtered.size());
  result["ring"] = std::move(ring);
  result["trace"] = obs::exemplar_trace_json(filtered);
  return make_ok_response(request.id, std::move(result));
}

util::json::Value Server::stats_json(std::uint64_t session_id) const {
  namespace json = util::json;
  json::Value server = json::Value::object();
  const Counters c = counters();
  server["connections"] = c.connections;
  server["requests"] = c.requests;
  server["admitted"] = c.admitted;
  server["completed"] = c.completed;
  server["shed"] = c.shed;
  server["deadline_expired"] = c.deadline_expired;
  server["protocol_errors"] = c.protocol_errors;
  server["batches"] = c.batches;
  server["batched_points"] = c.batched_points;
  server["dedup_hits"] = c.dedup_hits;
  server["queue_depth"] = queue_->size();
  server["sessions"] = registry_.size();
  server["executing"] = executing();

  json::Value root = json::Value::object();
  root["server"] = std::move(server);

  if (session_id != 0) {
    const std::shared_ptr<Session> session = registry_.find(session_id);
    if (session != nullptr) {
      const thermal::EngineStats es = session->system().engine().stats();
      json::Value engine = json::Value::object();
      engine["points"] = es.points;
      engine["linear_solves"] = es.linear_solves;
      engine["cg_iterations"] = es.cg_iterations;
      engine["factorizations"] = es.factorizations;
      engine["factor_hits"] = es.factor_hits;
      engine["direct_fallbacks"] = es.direct_fallbacks;
      json::Value sess = json::Value::object();
      sess["id"] = session->id();
      sess["engine"] = std::move(engine);
      sess["evaluations"] = session->system().evaluation_count();
      sess["eval_cache_hits"] = session->system().cache_hits();
      const Session::Activity& act = session->activity();
      json::Value requests = json::Value::object();
      requests["solve"] = act.solves.load(std::memory_order_relaxed);
      requests["control"] = act.controls.load(std::memory_order_relaxed);
      requests["lut"] = act.luts.load(std::memory_order_relaxed);
      requests["transient"] = act.transients.load(std::memory_order_relaxed);
      sess["requests"] = std::move(requests);
      root["session"] = std::move(sess);
    }
  }
  return root;
}

void Server::batcher_loop() {
  const auto is_solve = [](const Pending& p) {
    return p.request.type == RequestType::kSolve;
  };
  while (std::optional<Pending> first = queue_->pop()) {
    g_obs_queue_depth.set(static_cast<double>(queue_->size()));
    first->queue_out = Clock::now();
    if (!is_solve(*first)) {
      first->exec_start = Clock::now();
      executing_.store(true, std::memory_order_release);
      execute_single(*first);
      executing_.store(false, std::memory_order_release);
      continue;
    }
    // Work-conserving: take the solves already queued directly behind the
    // first one and never wait for more. A non-solve stays at the front of
    // the queue and runs after this batch, in arrival order.
    std::vector<Pending> batch;
    batch.push_back(std::move(*first));
    while (batch.size() < options_.max_batch_size) {
      std::optional<Pending> next = queue_->try_pop_if(is_solve);
      if (!next.has_value()) break;
      next->queue_out = Clock::now();
      batch.push_back(std::move(*next));
    }
    const Clock::time_point formed = Clock::now();
    for (Pending& item : batch) item.exec_start = formed;
    executing_.store(true, std::memory_order_release);
    execute_solve_batch(batch);
    executing_.store(false, std::memory_order_release);
  }
}

bool Server::expired(const Pending& item) {
  return Clock::now() > item.deadline;
}

void Server::respond(const Pending& item, Response response) {
  response.id = item.request.id;
  response.trace_id = item.request.trace_id;

  const Clock::time_point now = Clock::now();
  TimingInfo t;
  t.present = true;
  t.decode_us = item.decode_us;
  t.queue_us = stage_us(item.arrival, item.queue_out);
  t.batch_us = stage_us(item.queue_out, item.exec_start);
  // An item answered mid-handler (error paths) has no solve_end stamp yet;
  // close the stage at the response instead so time is never lost.
  t.solve_us = stage_us(item.solve_start,
                        item.solve_end == Clock::time_point{}
                            ? now
                            : item.solve_end);
  t.total_us = stage_us(item.arrival, now);
  response.timing = timing_json(t);

  // Record observability BEFORE handing the reply to the writer: once a
  // client holds a response, a kStats/kTrace scrape must already see this
  // request's stage observations and exemplar. The cost ahead of send() is
  // a few relaxed atomics plus (when capturing) one try-lock.
  g_obs_latency.observe(t.total_us);
  g_obs_queue_wait.observe(t.queue_us);
  g_obs_solve.observe(t.solve_us);
  if (item.request.type == RequestType::kSolve) {
    g_obs_batch_wait.observe(t.batch_us);
  }
  if (obs::exemplars_active() && obs::should_capture_exemplar(t.total_us)) {
    obs::Exemplar ex;
    ex.trace_id = item.request.trace_id;
    ex.name = request_type_name(item.request.type);
    ex.start_us = obs::exemplar_now_us() - t.total_us;
    ex.total_us = t.total_us;
    ex.stages.push_back({"queue", 0.0, t.queue_us});
    ex.stages.push_back({"batch", t.queue_us, t.batch_us});
    ex.stages.push_back({"solve", t.queue_us + t.batch_us, t.solve_us});
    (void)obs::record_exemplar(std::move(ex));
  }

  item.connection->send(response);
  item.connection->end_request();
  n_completed_.fetch_add(1, std::memory_order_relaxed);
}

void Server::execute_solve_batch(std::vector<Pending>& batch) {
  OBS_SPAN("serve.batch");
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  g_obs_batches.add();
  n_batched_points_.fetch_add(batch.size(), std::memory_order_relaxed);
  g_obs_batch_size.observe(static_cast<double>(batch.size()));

  // Group by session, answering expired/invalid requests immediately.
  std::map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (expired(batch[i])) {
      n_deadline_.fetch_add(1, std::memory_order_relaxed);
      g_obs_deadline.add();
      respond(batch[i],
              make_error_response(0, kErrDeadlineExceeded,
                                  "deadline expired while queued"));
      continue;
    }
    groups[std::get<SolveParams>(batch[i].request.params).session].push_back(
        i);
  }

  for (auto& [session_id, indices] : groups) {
    const std::shared_ptr<Session> session = registry_.find(session_id);
    if (session == nullptr) {
      for (const std::size_t i : indices) {
        respond(batch[i], make_error_response(0, kErrUnknownSession,
                                              "unknown session " +
                                                  std::to_string(session_id)));
      }
      continue;
    }

    // Deduplicate identical operating points: concurrent clients asking the
    // same question get one solve, everyone gets the (bit-identical) answer.
    std::vector<bool> answered(indices.size(), false);
    try {
      if (g_fault_exec.should_fail()) {
        throw std::runtime_error("injected executor fault");
      }
      std::vector<thermal::OperatingPoint> points;
      std::map<std::pair<double, double>, std::size_t> point_index;
      std::vector<std::size_t> result_of(indices.size());
      for (std::size_t k = 0; k < indices.size(); ++k) {
        const auto& params =
            std::get<SolveParams>(batch[indices[k]].request.params);
        if (!session->point_in_range(params.omega, params.current)) {
          respond(batch[indices[k]],
                  make_error_response(0, kErrBadRequest,
                                      "operating point out of range"));
          answered[k] = true;
          continue;
        }
        const auto key = std::make_pair(params.omega, params.current);
        const auto [it, inserted] =
            point_index.emplace(key, points.size());
        if (inserted) {
          points.push_back({params.omega, params.current});
        } else {
          n_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
          g_obs_dedup.add();
        }
        result_of[k] = it->second;
      }

      if (points.empty()) continue;
      g_obs_req_solve.add(points.size());
      session->activity().solves.fetch_add(indices.size(),
                                           std::memory_order_relaxed);
      const Clock::time_point solve_start = Clock::now();
      const std::vector<thermal::SteadyResult> results =
          session->system().engine().solve_batch(points);
      const Clock::time_point solve_end = Clock::now();
      for (const std::size_t i : indices) {
        batch[i].solve_start = solve_start;
        batch[i].solve_end = solve_end;
      }

      for (std::size_t k = 0; k < indices.size(); ++k) {
        if (answered[k]) continue;
        const Pending& item = batch[indices[k]];
        const thermal::SteadyResult& sr = results[result_of[k]];
        const auto& params = std::get<SolveParams>(item.request.params);
        const core::Evaluation ev = core::make_evaluation(
            session->system().thermal_model(), sr, params.omega);
        SolveReply reply;
        reply.runaway = ev.runaway;
        reply.max_chip_temperature_k = ev.max_chip_temperature;
        reply.leakage_w = ev.power.leakage;
        reply.tec_w = ev.power.tec;
        reply.fan_w = ev.power.fan;
        reply.iterations = ev.solver_iterations;
        answered[k] = true;
        respond(item, make_ok_response(0, solve_result_json(reply)));
      }
    } catch (const std::exception& e) {
      // Mirror execute_single: a throwing solve (solve_engine throw sites,
      // bad_alloc on large grids) must not escape batcher_loop — answer the
      // group's unanswered items and move on to the next group.
      for (std::size_t k = 0; k < indices.size(); ++k) {
        if (answered[k]) continue;
        answered[k] = true;
        respond(batch[indices[k]],
                make_error_response(0, kErrInternal, e.what()));
      }
    }
  }
}

void Server::execute_single(Pending& item) {
  OBS_SPAN("serve.single");
  if (expired(item)) {
    n_deadline_.fetch_add(1, std::memory_order_relaxed);
    g_obs_deadline.add();
    respond(item, make_error_response(0, kErrDeadlineExceeded,
                                      "deadline expired while queued"));
    return;
  }
  item.solve_start = Clock::now();
  try {
    if (g_fault_exec.should_fail()) {
      throw std::runtime_error("injected executor fault");
    }
    switch (item.request.type) {
      case RequestType::kBind: {
        const auto& params = std::get<BindParams>(item.request.params);
        const std::shared_ptr<Session> session = registry_.create(params);
        g_obs_req_bind.add();
        item.solve_end = Clock::now();
        respond(item,
                make_ok_response(0, bind_result_json(session->describe())));
        return;
      }
      case RequestType::kControl: {
        const auto& params = std::get<ControlParams>(item.request.params);
        const std::shared_ptr<Session> session =
            registry_.find(params.session);
        if (session == nullptr) {
          respond(item, make_error_response(0, kErrUnknownSession,
                                            "unknown session"));
          return;
        }
        g_obs_req_control.add();
        session->activity().controls.fetch_add(1, std::memory_order_relaxed);
        ControlReply reply;
        reply.objective = params.objective;
        if (params.objective == "min_temperature") {
          const core::MinTemperatureResult r =
              core::run_min_temperature(session->system());
          reply.success = r.finite;
          reply.omega = r.omega;
          reply.current = r.current;
          reply.max_chip_temperature_k = r.max_chip_temperature;
          reply.leakage_w = r.power.leakage;
          reply.tec_w = r.power.tec;
          reply.fan_w = r.power.fan;
          reply.runtime_ms = r.runtime_ms;
          reply.thermal_solves = r.thermal_solves;
        } else {
          const core::OftecResult r = core::run_oftec(session->system());
          reply.success = r.success;
          reply.used_opt2 = r.used_opt2;
          reply.omega = r.omega;
          reply.current = r.current;
          reply.max_chip_temperature_k = r.max_chip_temperature;
          reply.leakage_w = r.power.leakage;
          reply.tec_w = r.power.tec;
          reply.fan_w = r.power.fan;
          reply.runtime_ms = r.runtime_ms;
          reply.thermal_solves = r.thermal_solves;
        }
        item.solve_end = Clock::now();
        respond(item, make_ok_response(0, control_result_json(reply)));
        return;
      }
      case RequestType::kLut: {
        const auto& params = std::get<LutParams>(item.request.params);
        const std::shared_ptr<Session> session =
            registry_.find(params.session);
        if (session == nullptr) {
          respond(item, make_error_response(0, kErrUnknownSession,
                                            "unknown session"));
          return;
        }
        if (session->lut() == nullptr) {
          respond(item,
                  make_error_response(0, kErrBadRequest,
                                      "session was bound without a LUT"));
          return;
        }
        const floorplan::Floorplan& fp = session->floorplan();
        if (params.power_w.size() != fp.block_count()) {
          respond(item, make_error_response(
                            0, kErrBadRequest,
                            "power_w length does not match floorplan"));
          return;
        }
        power::PowerMap query(fp);
        for (std::size_t i = 0; i < params.power_w.size(); ++i) {
          query.set(i, params.power_w[i]);
        }
        g_obs_req_lut.add();
        session->activity().luts.fetch_add(1, std::memory_order_relaxed);
        const core::LutController::LookupResult r =
            session->lut()->lookup(query);
        LutReply reply;
        reply.omega = r.omega;
        reply.current = r.current;
        reply.feasible = r.feasible;
        reply.entry_index = r.entry_index;
        reply.feature_distance = r.feature_distance;
        item.solve_end = Clock::now();
        respond(item, make_ok_response(0, lut_result_json(reply)));
        return;
      }
      case RequestType::kTransient: {
        const auto& params = std::get<TransientParams>(item.request.params);
        const std::shared_ptr<Session> session =
            registry_.find(params.session);
        if (session == nullptr) {
          respond(item, make_error_response(0, kErrUnknownSession,
                                            "unknown session"));
          return;
        }
        g_obs_req_transient.add();
        session->activity().transients.fetch_add(1,
                                                 std::memory_order_relaxed);
        const TransientReply reply = session->transient_step(params);
        item.solve_end = Clock::now();
        respond(item, make_ok_response(0, transient_result_json(reply)));
        return;
      }
      case RequestType::kSleep: {
        const auto& params = std::get<SleepParams>(item.request.params);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long long>(params.ms * 1000.0)));
        respond(item,
                make_ok_response(0, util::json::Value::object()));
        return;
      }
      default:
        respond(item, make_error_response(0, kErrInternal,
                                          "request type cannot be queued"));
        return;
    }
  } catch (const ProtocolError& e) {
    respond(item, make_error_response(0, e.code(), e.message()));
  } catch (const std::exception& e) {
    respond(item, make_error_response(0, kErrInternal, e.what()));
  }
}

}  // namespace oftec::serve
