// oftec-serve server core: TCP acceptor, per-connection reader/writer
// threads, a central bounded admission queue, and a micro-batcher that
// coalesces concurrent solve requests into SolveEngine batches.
//
// Pipeline (one box per thread):
//
//   acceptor ──► reader (per conn) ──► BoundedQueue ──► batcher ──► writer
//                  │ decode, admit        │ admission      │ coalesce   (per
//                  │ inline: ping/stats/  │ control:       │ + execute  conn)
//                  │ unbind + shed        │ try_push       │ on the
//                  │ replies              │ or shed        │ engine pool
//
// Batching takes the solves already queued; it never waits. A popped solve
// takes the solves queued directly behind it, up to max_batch_size; batches
// form under load because requests pile up while a batch runs. A batch is
// grouped by session, deduplicated on identical (ω, I), and fanned through
// SolveEngine::solve_batch — concurrent clients share factorization-cache
// hits and the engine's thread pool. Every other request type executes
// singly in arrival order. Because the engine is deterministic from a fixed
// initial guess, a batched response is bit-identical to a direct
// CoolingSystem call.
//
// Admission control & degradation: the central queue is bounded; when full,
// requests are refused immediately with a structured kErrOverloaded response
// carrying retry_after_ms — clients never hang on an overloaded server.
// Each request may carry a relative deadline; requests that expire while
// queued get kErrDeadlineExceeded instead of being executed. stop() drains:
// admitted work completes, readers are unblocked, writers flush, and every
// thread is joined before stop() returns.
//
// Observability: queue depth gauge, batch-size and end-to-end latency
// histograms, per-stage attribution histograms (serve.queue_wait_us /
// serve.batch_wait_us / serve.solve_us / serve.write_us), per-type request
// counters, shed/deadline/dedup counters and spans, all under the "serve."
// prefix in the oftec::obs registry. Every queued response carries a
// `timing` block with the same breakdown, kStats exposes the registry live
// (JSON snapshot/delta-since-cursor or Prometheus text), and requests
// slower than OFTEC_SLOW_REQ_US land in the exemplar ring, dumpable via
// kTrace as Chrome trace JSON. See docs/observability.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/obs.h"

namespace oftec::serve {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral loopback port (see Server::port)
  /// Most solves one batch takes from the queue (1 = serial dispatch).
  std::size_t max_batch_size = 16;
  /// Central queue bound — the admission-control knob.
  std::size_t max_queue_depth = 256;
  /// Frame payload cap for untrusted input.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t max_sessions = 64;
  /// Backpressure hint sent with kErrOverloaded replies [ms].
  double shed_retry_after_ms = 5.0;
  /// Accept the test-only "sleep" request (deterministic overload tests).
  bool enable_test_requests = false;
  /// Readiness handshake for process supervision: when >= 0, start() writes
  /// "PORT <bound>\n" to this descriptor and closes it once the listener is
  /// live. A parent that forked us can block on the pipe instead of polling
  /// the port (see cluster::ProcessWorker).
  int ready_fd = -1;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< implies stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listener and launch the pipeline threads. Throws
  /// std::runtime_error if the port cannot be bound.
  void start();

  /// Graceful drain: refuse new work, complete admitted work, flush
  /// responses, join every thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Monotonic pipeline counters (snapshot; also mirrored into oftec::obs).
  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;          ///< decoded requests, all types
    std::uint64_t admitted = 0;          ///< entered the central queue
    std::uint64_t completed = 0;         ///< responses sent for queued work
    std::uint64_t shed = 0;              ///< kErrOverloaded replies
    std::uint64_t deadline_expired = 0;  ///< kErrDeadlineExceeded replies
    std::uint64_t protocol_errors = 0;   ///< bad frames/messages
    std::uint64_t batches = 0;           ///< solve batches executed
    std::uint64_t batched_points = 0;    ///< solve requests inside batches
    std::uint64_t dedup_hits = 0;        ///< solves answered by a batchmate
  };
  [[nodiscard]] Counters counters() const;

  /// True while the batcher is executing work (used by tests to line up
  /// deterministic overload scenarios).
  [[nodiscard]] bool executing() const noexcept {
    return executing_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_->size(); }

 private:
  struct Connection;

  /// One admitted request. The extra time points are stage stamps for the
  /// response `timing` block; a default-constructed time_point means "stage
  /// never reached" and the stage reads as 0 in the breakdown.
  struct Pending {
    Request request;
    std::shared_ptr<Connection> connection;
    double decode_us = 0.0;  ///< frame decode + request parse duration
    std::chrono::steady_clock::time_point arrival{};
    std::chrono::steady_clock::time_point deadline{};     ///< max() = none
    std::chrono::steady_clock::time_point queue_out{};    ///< batcher pop
    std::chrono::steady_clock::time_point exec_start{};   ///< batch formed
    std::chrono::steady_clock::time_point solve_start{};  ///< handler enter
    std::chrono::steady_clock::time_point solve_end{};    ///< handler exit
  };

  void acceptor_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  void batcher_loop();

  /// Handle the request types the reader answers without queueing.
  [[nodiscard]] bool handle_inline(const Request& request,
                                   const std::shared_ptr<Connection>& conn);
  [[nodiscard]] util::json::Value stats_json(std::uint64_t session_id) const;
  [[nodiscard]] Response handle_stats(const Request& request);
  [[nodiscard]] Response handle_trace(const Request& request);

  void execute_solve_batch(std::vector<Pending>& batch);
  void execute_single(Pending& item);
  void respond(const Pending& item, Response response);
  [[nodiscard]] static bool expired(const Pending& item);

  ServerOptions options_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point started_at_{};  ///< stamped by start()
  SessionRegistry registry_;
  std::unique_ptr<BoundedQueue<Pending>> queue_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> executing_{false};

  std::thread acceptor_;
  std::thread batcher_;
  std::mutex stop_mutex_;  ///< serializes stop() (it joins threads)
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  /// Delta-scrape state: cursor token → the obs snapshot taken when that
  /// token was handed out. Bounded (kMaxStatsCursors, oldest evicted) so a
  /// scraper that never reuses cursors cannot grow server memory.
  static constexpr std::size_t kMaxStatsCursors = 16;
  mutable std::mutex stats_mutex_;
  std::map<std::uint64_t, obs::Snapshot> stats_cursors_;
  std::uint64_t next_stats_cursor_ = 1;

  // Counters (relaxed increments; counters() takes a consistent-enough
  // snapshot of independently updated fields).
  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_admitted_{0};
  std::atomic<std::uint64_t> n_completed_{0};
  std::atomic<std::uint64_t> n_shed_{0};
  std::atomic<std::uint64_t> n_deadline_{0};
  std::atomic<std::uint64_t> n_protocol_errors_{0};
  std::atomic<std::uint64_t> n_batches_{0};
  std::atomic<std::uint64_t> n_batched_points_{0};
  std::atomic<std::uint64_t> n_dedup_hits_{0};
};

}  // namespace oftec::serve
