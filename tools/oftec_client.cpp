// oftec_client — command-line front end for oftec-serve and oftec-cluster.
//
//   oftec_client serve  [--port N] [--batch N] [--queue N] [--sessions N]
//                       [--ready-fd FD] [--test-requests]
//   oftec_client cluster [--port N] [--workers N | --attach "p1,p2,..."]
//                       [--process [--worker-bin PATH]] [--journal FILE]
//                       [--batch N] [--queue N] [--sessions N]
//                       [--probe-interval-ms N] [--probe-timeout-ms N]
//                       [--fail-threshold N] [--restart-backoff-ms N]
//                       [--restart-backoff-max-ms N] [--stable-uptime-ms N]
//                       [--crash-loop-threshold N]
//   oftec_client ping   --port N
//   oftec_client health --port N
//   oftec_client bind   --port N (--benchmark NAME | --power "w0,w1,...")
//                       [--grid N] [--t-max-c X] [--no-tec] [--direct]
//                       [--lut-train "b0,b1,..."]
//   oftec_client unbind --port N --session S
//   oftec_client solve  --port N --session S --omega W --current I
//   oftec_client control --port N --session S [--objective oftec|min_temperature]
//   oftec_client lut    --port N --session S --power "w0,w1,..."
//   oftec_client transient --port N --session S --omega W --current I
//                       --duration T [--step DT] [--reset]
//   oftec_client stats  --port N [--session S] [--view snapshot|delta]
//                       [--cursor C] [--prom]
//   oftec_client top    --port N [--session S] [--interval-ms N] [--count N]
//                       [--cluster]
//   oftec_client trace  --port N [--id TRACE_ID] [--limit N] [--out FILE]
//
// `cluster` runs a sharded multi-worker daemon behind one router port:
// spawning --workers in-process oftec-serve workers (default), fork/exec'ing
// them as isolated `oftec_client serve` child processes (--process; crashes
// are reaped instantly and respawned with crash-loop backoff), or fronting
// externally managed servers listed in --attach. --journal FILE makes bound
// session specs durable: a restarted cluster replays the journal and serves
// every previously bound session without client re-registration. Clients
// speak plain protocol v1 to it, unchanged.
//
// `--batch N` caps a solve batch: the batcher takes the solves already
// queued, up to N, and never waits for more (1 = serial dispatch).
//
// `serve --ready-fd FD` is the process-worker handshake: once the listener
// is live the server writes "PORT <n>\n" to FD and closes it (the cluster
// supervisor passes a pipe here; the banner is suppressed).
//
// `top` renders a live refreshing stats view (server counters plus stage
// latency quantiles computed from the obs histograms) using delta scrapes,
// so the numbers are per-interval rates. Pointed at a cluster (or with
// --cluster), it instead renders the router counters, a per-worker summary
// table, and per-worker stage quantiles side by side (snapshot view — the
// cluster stats response aggregates workers with independent cursors).
// `trace` dumps the server's slow-request exemplar ring as Chrome
// trace_event JSON (load the file in chrome://tracing or Perfetto).
//
// Every RPC command also accepts resilience flags:
//   --retries N      total attempts per RPC (default 1 = no retry)
//   --backoff-ms X   initial retry backoff, doubling per attempt (default 5)
//   --timeout-ms X   per-receive timeout; 0 = block forever (default 0)
//   --trace-id X     trace id attached to the RPC (echoed by the server)
//   --timing         print the server's per-stage timing block to stderr
//
// `serve` and `cluster` run daemons on the loopback interface until
// SIGINT/SIGTERM — both signals mean the same thing: stop accepting, drain
// in-flight work, print the final counters, exit 0 (handlers are installed
// before the listener opens, so there is no window where SIGTERM kills the
// daemon without a drain);
// every other command connects, performs one RPC, prints the reply, and
// exits with a code that scripts can branch on:
//   0  success
//   1  unexpected local error
//   2  usage error
//   3  connect/transport failure (server unreachable or connection lost)
//   4  receive timeout
//   5  server overloaded or shutting down (retry later)
//   6  server-side internal error
//   7  other structured protocol error (bad request, unknown session, ...)
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "cluster/cluster.h"
#include "serve/client.h"
#include "serve/resilient_client.h"
#include "serve/server.h"
#include "util/obs.h"
#include "util/strings.h"
#include "util/units.h"

namespace {

using namespace oftec;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

/// SIGINT and SIGTERM both mean "drain and exit". Installed via sigaction
/// (not std::signal) so the disposition survives fork/exec races and
/// syscalls restart instead of failing with EINTR; installed *before* the
/// listener opens so an early SIGTERM still drains.
void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void wait_for_stop() {
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: oftec_client <serve|cluster|ping|bind|unbind|solve|"
               "control|lut|transient|stats|top|trace> [--flag value ...]\n"
               "see the header of tools/oftec_client.cpp for details\n");
  std::exit(2);
}

/// "--key value" pairs plus boolean "--key" flags (value "1").
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage();
    std::string key = argv[i] + 2;
    const bool has_value =
        i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    flags.insert_or_assign(std::move(key),
                           std::string(has_value ? argv[++i] : "1"));
  }
  return flags;
}

std::string flag_or(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

double num_flag(const std::map<std::string, std::string>& flags,
                const std::string& key, double fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stod(it->second);
}

bool has_flag(const std::map<std::string, std::string>& flags,
              const std::string& key) {
  return flags.count(key) != 0;
}

std::vector<double> parse_power_list(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& tok : util::split(csv, ',')) {
    out.push_back(std::stod(std::string(util::trim(tok))));
  }
  return out;
}

// Script-friendly exit codes (see the file header).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConnect = 3;
constexpr int kExitTimeout = 4;
constexpr int kExitOverloaded = 5;
constexpr int kExitInternal = 6;
constexpr int kExitProtocol = 7;

serve::ResilientClient connect_from(
    const std::map<std::string, std::string>& flags) {
  const double port = num_flag(flags, "port", 0.0);
  if (port <= 0.0 || port > 65535.0) {
    std::fprintf(stderr, "error: --port is required (1-65535)\n");
    std::exit(kExitUsage);
  }
  serve::ResilientClient::Options opts;
  opts.retry.max_attempts =
      static_cast<int>(num_flag(flags, "retries", 1.0));
  opts.retry.initial_backoff_ms = num_flag(flags, "backoff-ms", 5.0);
  opts.client.recv_timeout_ms =
      static_cast<long>(num_flag(flags, "timeout-ms", 0.0));
  serve::ResilientClient client(static_cast<std::uint16_t>(port), opts);
  if (has_flag(flags, "trace-id")) {
    client.set_next_trace_id(flags.at("trace-id"));
  }
  return client;
}

/// --timing: print the server's stage breakdown for the RPC that just ran.
void report_timing(const serve::ResilientClient& client,
                   const std::map<std::string, std::string>& flags) {
  if (!has_flag(flags, "timing")) return;
  const serve::TimingInfo& t = client.last_timing();
  if (!t.present) {
    std::fprintf(stderr, "timing: (server sent no timing block)\n");
    return;
  }
  std::fprintf(stderr,
               "timing: total=%.1f us (decode=%.1f queue=%.1f batch=%.1f "
               "solve=%.1f)%s%s\n",
               t.total_us, t.decode_us, t.queue_us, t.batch_us, t.solve_us,
               client.last_trace_id().empty() ? "" : "  trace_id=",
               client.last_trace_id().c_str());
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  serve::ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(num_flag(flags, "port", 0.0));
  opts.max_batch_size =
      static_cast<std::size_t>(num_flag(flags, "batch", 16.0));
  opts.max_queue_depth =
      static_cast<std::size_t>(num_flag(flags, "queue", 256.0));
  opts.max_sessions =
      static_cast<std::size_t>(num_flag(flags, "sessions", 64.0));
  opts.enable_test_requests = has_flag(flags, "test-requests");
  opts.ready_fd = static_cast<int>(num_flag(flags, "ready-fd", -1.0));
  // Quiet when supervised: the readiness pipe carries the port, and the
  // child's stdout interleaves with the parent's.
  const bool supervised = opts.ready_fd >= 0;

  install_stop_handlers();
  serve::Server server(opts);
  server.start();
  if (!supervised) {
    std::printf("oftec-serve listening on 127.0.0.1:%u (Ctrl-C to stop)\n",
                server.port());
    std::fflush(stdout);
  }

  wait_for_stop();
  if (!supervised) std::printf("draining...\n");
  server.stop();
  if (!supervised) {
    const serve::Server::Counters c = server.counters();
    std::printf("served %llu requests (%llu shed, %llu batches)\n",
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.shed),
                static_cast<unsigned long long>(c.batches));
  }
  return 0;
}

int cmd_cluster(const std::map<std::string, std::string>& flags) {
  cluster::ClusterOptions opts;
  opts.router.port =
      static_cast<std::uint16_t>(num_flag(flags, "port", 0.0));
  if (has_flag(flags, "attach")) {
    for (const std::string& tok : util::split(flags.at("attach"), ',')) {
      opts.attach_ports.push_back(static_cast<std::uint16_t>(
          std::stoul(std::string(util::trim(tok)))));
    }
  } else {
    opts.supervisor.workers =
        static_cast<std::size_t>(num_flag(flags, "workers", 2.0));
  }
  opts.supervisor.worker_server.max_batch_size =
      static_cast<std::size_t>(num_flag(flags, "batch", 16.0));
  opts.supervisor.worker_server.max_queue_depth =
      static_cast<std::size_t>(num_flag(flags, "queue", 256.0));
  opts.supervisor.worker_server.max_sessions =
      static_cast<std::size_t>(num_flag(flags, "sessions", 64.0));
  opts.supervisor.probe_interval_ms = static_cast<std::uint64_t>(
      num_flag(flags, "probe-interval-ms", 100.0));
  opts.supervisor.probe_timeout_ms =
      static_cast<long>(num_flag(flags, "probe-timeout-ms", 250.0));
  opts.supervisor.fail_threshold =
      static_cast<int>(num_flag(flags, "fail-threshold", 3.0));
  opts.supervisor.restart_backoff_initial_ms = static_cast<std::uint64_t>(
      num_flag(flags, "restart-backoff-ms", 100.0));
  opts.supervisor.restart_backoff_max_ms = static_cast<std::uint64_t>(
      num_flag(flags, "restart-backoff-max-ms", 5000.0));
  opts.supervisor.stable_uptime_ms = static_cast<std::uint64_t>(
      num_flag(flags, "stable-uptime-ms", 2000.0));
  opts.supervisor.crash_loop_threshold =
      static_cast<int>(num_flag(flags, "crash-loop-threshold", 3.0));
  opts.router.journal_path = flag_or(flags, "journal", "");

  const char* mode = "spawned";
  if (!opts.attach_ports.empty()) {
    mode = "attached";
  } else if (has_flag(flags, "process")) {
    opts.worker_mode = cluster::WorkerMode::kProcess;
    opts.process.binary = flag_or(flags, "worker-bin", "");
    // Child workers get the same serving knobs as in-process ones would.
    opts.process.extra_args = {
        "--batch", flag_or(flags, "batch", "16"),
        "--queue", flag_or(flags, "queue", "256"),
        "--sessions", flag_or(flags, "sessions", "64")};
    mode = "process";
  }

  install_stop_handlers();
  cluster::Cluster cluster(opts);
  cluster.start();
  std::printf("oftec-cluster listening on 127.0.0.1:%u "
              "(%zu %s workers, Ctrl-C to stop)\n",
              cluster.port(), cluster.supervisor().worker_count(), mode);
  for (const auto& w : cluster.supervisor().snapshot()) {
    std::printf("  worker %u: 127.0.0.1:%u (%s)\n", w.slot, w.port,
                cluster::worker_state_name(w.state));
  }
  std::fflush(stdout);

  wait_for_stop();
  std::printf("draining...\n");
  cluster.stop();
  const cluster::Router::Counters c = cluster.router().counters();
  std::printf("forwarded %llu requests (%llu shed, %llu migrations, "
              "%llu rehomed, %llu recovered, %llu worker restarts)\n",
              static_cast<unsigned long long>(c.forwarded),
              static_cast<unsigned long long>(c.shed),
              static_cast<unsigned long long>(c.migrations),
              static_cast<unsigned long long>(c.rehomed),
              static_cast<unsigned long long>(c.recovered),
              static_cast<unsigned long long>(
                  cluster.supervisor().restarts()));
  return 0;
}

int cmd_ping(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  client.ping();
  std::printf("ok\n");
  return 0;
}

int cmd_health(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  const serve::HealthReply r = client.health();
  std::printf("healthy=%s accepting=%s sessions=%llu queue=%llu/%llu\n",
              r.healthy ? "yes" : "no", r.accepting ? "yes" : "no",
              static_cast<unsigned long long>(r.sessions),
              static_cast<unsigned long long>(r.queue_depth),
              static_cast<unsigned long long>(r.queue_capacity));
  return r.healthy && r.accepting ? kExitOk : kExitOverloaded;
}

int cmd_bind(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  serve::BindParams params;
  params.benchmark = flag_or(flags, "benchmark", "");
  if (has_flag(flags, "power")) {
    params.power_w = parse_power_list(flags.at("power"));
  }
  const auto grid = static_cast<std::size_t>(num_flag(flags, "grid", 10.0));
  params.grid_nx = grid;
  params.grid_ny = grid;
  params.t_max_c = num_flag(flags, "t-max-c", 0.0);
  params.with_tec = !has_flag(flags, "no-tec");
  params.direct_solve = has_flag(flags, "direct");
  if (has_flag(flags, "lut-train")) {
    for (const std::string& tok : util::split(flags.at("lut-train"), ',')) {
      params.lut_training.emplace_back(util::trim(tok));
    }
  }
  const serve::BindReply r = client.bind(params);
  std::printf("session %llu  T_max=%.2f C  omega_max=%.0f RPM  "
              "I_max=%.2f A  tec=%s  blocks=%zu\n",
              static_cast<unsigned long long>(r.session),
              units::kelvin_to_celsius(r.t_max_k),
              units::rad_s_to_rpm(r.omega_max), r.current_max,
              r.has_tec ? "yes" : "no", r.blocks.size());
  return 0;
}

int cmd_unbind(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  const auto session =
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0));
  std::printf("%s\n", client.unbind(session) ? "removed" : "not found");
  return 0;
}

int cmd_solve(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  client.set_session(
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0)));
  const serve::SolveReply r = client.solve(num_flag(flags, "omega", 0.0),
                                           num_flag(flags, "current", 0.0));
  if (r.runaway) {
    std::printf("RUNAWAY\n");
  } else {
    std::printf("T_max=%.3f C  P_leak=%.3f W  P_tec=%.3f W  P_fan=%.3f W  "
                "(%llu newton iters)\n",
                units::kelvin_to_celsius(r.max_chip_temperature_k),
                r.leakage_w, r.tec_w, r.fan_w,
                static_cast<unsigned long long>(r.iterations));
  }
  report_timing(client, flags);
  return 0;
}

int cmd_control(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  client.set_session(
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0)));
  const serve::ControlReply r =
      client.control(flag_or(flags, "objective", "oftec"));
  std::printf("%s: %s  omega=%.0f RPM  I=%.3f A  T=%.2f C  "
              "P_cool=%.2f W  (%.1f ms, %llu solves)\n",
              r.objective.c_str(), r.success ? "ok" : "infeasible",
              units::rad_s_to_rpm(r.omega), r.current,
              units::kelvin_to_celsius(r.max_chip_temperature_k),
              r.leakage_w + r.tec_w + r.fan_w, r.runtime_ms,
              static_cast<unsigned long long>(r.thermal_solves));
  report_timing(client, flags);
  return 0;
}

int cmd_lut(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  client.set_session(
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0)));
  if (!has_flag(flags, "power")) usage();
  const serve::LutReply r = client.lut(parse_power_list(flags.at("power")));
  std::printf("entry %llu (distance %.3f W): omega=%.0f RPM  I=%.3f A  %s\n",
              static_cast<unsigned long long>(r.entry_index),
              r.feature_distance, units::rad_s_to_rpm(r.omega), r.current,
              r.feasible ? "feasible" : "INFEASIBLE");
  return 0;
}

int cmd_transient(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  client.set_session(
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0)));
  serve::TransientParams params;
  params.omega = num_flag(flags, "omega", 0.0);
  params.current = num_flag(flags, "current", 0.0);
  params.duration_s = num_flag(flags, "duration", 0.0);
  params.time_step_s = num_flag(flags, "step", 1e-3);
  params.reset = has_flag(flags, "reset");
  const serve::TransientReply r = client.transient(params);
  if (r.runaway) {
    std::printf("RUNAWAY after %llu steps\n",
                static_cast<unsigned long long>(r.steps));
  } else {
    std::printf("t=%.3f s  T_final=%.3f C  T_peak=%.3f C  (%llu steps)\n",
                r.time_s,
                units::kelvin_to_celsius(r.final_max_chip_temperature_k),
                units::kelvin_to_celsius(r.peak_max_chip_temperature_k),
                static_cast<unsigned long long>(r.steps));
  }
  return 0;
}

int cmd_stats(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  serve::StatsParams params;
  params.session =
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0));
  params.view = flag_or(flags, "view", "snapshot");
  params.cursor = static_cast<std::uint64_t>(num_flag(flags, "cursor", 0.0));
  if (has_flag(flags, "prom")) params.format = "prometheus";
  const util::json::Value r = client.raw_stats(params);
  if (params.format == "prometheus") {
    const util::json::Value* text = r.find("text");
    std::printf("%s", text != nullptr && text->is_string()
                          ? text->as_string().c_str()
                          : "");
  } else {
    std::printf("%s\n", r.dump().c_str());
  }
  return 0;
}

// --- top: live refreshing stats view ---------------------------------------

/// Rebuild an obs::HistogramSnapshot from a stats response's obs block so
/// the client can reuse HistogramSnapshot::quantile.
obs::HistogramSnapshot histogram_from_json(const util::json::Value& entry) {
  obs::HistogramSnapshot h;
  if (const util::json::Value* bounds = entry.find("bounds");
      bounds != nullptr && bounds->is_array()) {
    for (const util::json::Value& b : bounds->as_array()) {
      if (b.is_number()) h.bounds.push_back(b.as_number());
    }
  }
  if (const util::json::Value* counts = entry.find("counts");
      counts != nullptr && counts->is_array()) {
    for (const util::json::Value& c : counts->as_array()) {
      if (c.is_number()) {
        h.counts.push_back(static_cast<std::uint64_t>(c.as_number()));
      }
    }
  }
  if (const util::json::Value* count = entry.find("count");
      count != nullptr && count->is_number()) {
    h.count = static_cast<std::uint64_t>(count->as_number());
  }
  if (const util::json::Value* sum = entry.find("sum");
      sum != nullptr && sum->is_number()) {
    h.sum = sum->as_number();
  }
  return h;
}

double server_counter(const util::json::Value& root, const char* key) {
  const util::json::Value* server = root.find("server");
  if (server == nullptr) return 0.0;
  const util::json::Value* v = server->find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

void render_top(const util::json::Value& r, double interval_s,
                bool is_delta) {
  std::printf("\x1b[H\x1b[2J");  // home + clear
  std::printf("oftec-serve top — %s view, %.1fs interval\n\n",
              is_delta ? "delta" : "snapshot", interval_s);
  std::printf("  requests=%.0f  admitted=%.0f  completed=%.0f  shed=%.0f  "
              "batches=%.0f  queue=%.0f  sessions=%.0f\n",
              server_counter(r, "requests"), server_counter(r, "admitted"),
              server_counter(r, "completed"), server_counter(r, "shed"),
              server_counter(r, "batches"), server_counter(r, "queue_depth"),
              server_counter(r, "sessions"));
  if (is_delta && interval_s > 0.0) {
    std::printf("  rate: %.1f req/s, %.1f completed/s\n",
                server_counter(r, "requests") / interval_s,
                server_counter(r, "completed") / interval_s);
  }

  const util::json::Value* obs_block = r.find("obs");
  const util::json::Value* hists =
      obs_block != nullptr ? obs_block->find("histograms") : nullptr;
  std::printf("\n  %-24s %10s %10s %10s %10s\n", "stage [us]", "count",
              "p50", "p95", "p99");
  for (const char* name :
       {"serve.queue_wait_us", "serve.batch_wait_us", "serve.solve_us",
        "serve.write_us", "serve.e2e_latency_us"}) {
    const util::json::Value* entry =
        hists != nullptr ? hists->find(name) : nullptr;
    if (entry == nullptr) continue;
    const obs::HistogramSnapshot h = histogram_from_json(*entry);
    if (h.count == 0) {
      std::printf("  %-24s %10s\n", name, "-");
      continue;
    }
    std::printf("  %-24s %10llu %10.1f %10.1f %10.1f\n", name,
                static_cast<unsigned long long>(h.count), h.quantile(0.5),
                h.quantile(0.95), h.quantile(0.99));
  }
  std::fflush(stdout);
}

double number_at(const util::json::Value* obj, const char* key) {
  const util::json::Value* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Cluster view: router counters, a per-worker summary table, then the
/// serve stage quantiles per worker side by side. Quantiles come from each
/// worker's embedded stats block; with in-process spawned workers those
/// share one obs registry (the columns agree), while attached external
/// servers report genuinely per-process histograms.
void render_cluster_top(const util::json::Value& r, double interval_s) {
  std::printf("\x1b[H\x1b[2J");  // home + clear
  const util::json::Value* router = r.find("router");
  std::printf("oftec-cluster top — snapshot view, %.1fs interval\n\n",
              interval_s);
  std::printf("  workers=%.0f  sessions=%.0f  inflight=%.0f  "
              "forwarded=%.0f  shed=%.0f  migrations=%.0f  restarts=%.0f\n",
              number_at(router, "workers"), number_at(router, "sessions"),
              number_at(router, "inflight"), number_at(router, "forwarded"),
              number_at(router, "shed"), number_at(router, "migrations"),
              number_at(router, "worker_restarts"));

  const util::json::Value* workers = r.find("workers");
  if (workers == nullptr || !workers->is_array()) return;
  const auto& list = workers->as_array();

  std::printf("\n  %4s %6s %-9s %9s %11s %9s %9s %9s\n", "slot", "port",
              "state", "sessions", "queue", "inflight", "restarts",
              "requests");
  for (const util::json::Value& w : list) {
    const util::json::Value* state = w.find("state");
    const util::json::Value* stats = w.find("stats");
    const util::json::Value* server =
        stats != nullptr ? stats->find("server") : nullptr;
    std::printf("  %4.0f %6.0f %-9s %9.0f %5.0f/%-5.0f %9.0f %9.0f %9.0f\n",
                number_at(&w, "slot"), number_at(&w, "port"),
                state != nullptr && state->is_string()
                    ? state->as_string().c_str()
                    : "?",
                number_at(&w, "sessions"), number_at(&w, "queue_depth"),
                number_at(&w, "queue_capacity"), number_at(&w, "inflight"),
                number_at(&w, "restarts"), number_at(server, "requests"));
  }

  std::printf("\n  %-22s", "stage [us] p50/p95");
  for (const util::json::Value& w : list) {
    char label[16];
    std::snprintf(label, sizeof label, "w%.0f", number_at(&w, "slot"));
    std::printf(" %16s", label);
  }
  std::printf("\n");
  for (const char* name :
       {"serve.queue_wait_us", "serve.batch_wait_us", "serve.solve_us",
        "serve.write_us", "serve.e2e_latency_us"}) {
    std::printf("  %-22s", name);
    for (const util::json::Value& w : list) {
      const util::json::Value* stats = w.find("stats");
      const util::json::Value* obs_block =
          stats != nullptr ? stats->find("obs") : nullptr;
      const util::json::Value* hists =
          obs_block != nullptr ? obs_block->find("histograms") : nullptr;
      const util::json::Value* entry =
          hists != nullptr ? hists->find(name) : nullptr;
      if (entry == nullptr) {
        std::printf(" %16s", "-");
        continue;
      }
      const obs::HistogramSnapshot h = histogram_from_json(*entry);
      if (h.count == 0) {
        std::printf(" %16s", "-");
        continue;
      }
      char cell[32];
      std::snprintf(cell, sizeof cell, "%.1f/%.1f", h.quantile(0.5),
                    h.quantile(0.95));
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

int cmd_top(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  const double interval_ms = num_flag(flags, "interval-ms", 1000.0);
  const int count = static_cast<int>(num_flag(flags, "count", 0.0));
  const auto session =
      static_cast<std::uint64_t>(num_flag(flags, "session", 0.0));
  std::signal(SIGINT, on_signal);

  std::uint64_t cursor = 0;
  for (int i = 0; (count == 0 || i < count) && !g_stop.load(); ++i) {
    serve::StatsParams params;
    params.session = session;
    params.view = cursor != 0 ? "delta" : "snapshot";
    params.cursor = cursor;
    const util::json::Value r = client.raw_stats(params);
    if (r.find("cluster") != nullptr) {
      // Cluster responses aggregate workers with independent cursors, so
      // the view stays snapshot (cursor is never advanced).
      render_cluster_top(r, interval_ms / 1000.0);
    } else {
      if (has_flag(flags, "cluster") && i == 0) {
        std::fprintf(stderr,
                     "note: --cluster given but the server replied with "
                     "single-node stats\n");
      }
      if (const util::json::Value* c = r.find("cursor");
          c != nullptr && c->is_number()) {
        cursor = static_cast<std::uint64_t>(c->as_number());
      }
      const util::json::Value* delta = r.find("delta");
      render_top(r, interval_ms / 1000.0,
                 delta != nullptr && delta->is_bool() && delta->as_bool());
    }
    if (count != 0 && i + 1 >= count) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long long>(interval_ms)));
  }
  return 0;
}

int cmd_trace(const std::map<std::string, std::string>& flags) {
  serve::ResilientClient client = connect_from(flags);
  serve::TraceParams params;
  params.trace_id = flag_or(flags, "id", "");
  params.limit = static_cast<std::uint64_t>(num_flag(flags, "limit", 0.0));
  const util::json::Value r = client.raw_trace(params);

  const util::json::Value* trace = r.find("trace");
  if (trace == nullptr) {
    std::fprintf(stderr, "error: trace response missing \"trace\"\n");
    return kExitError;
  }
  const std::string out = flag_or(flags, "out", "");
  if (out.empty()) {
    std::printf("%s\n", trace->dump().c_str());
  } else {
    std::ofstream os(out);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return kExitError;
    }
    os << trace->dump() << '\n';
    const util::json::Value* n = r.find("count");
    std::printf("wrote %s (%.0f exemplars) — open in chrome://tracing\n",
                out.c_str(),
                n != nullptr && n->is_number() ? n->as_number() : 0.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const std::map<std::string, std::string> flags =
      parse_flags(argc, argv, 2);
  try {
    if (command == "serve") return cmd_serve(flags);
    if (command == "cluster") return cmd_cluster(flags);
    if (command == "ping") return cmd_ping(flags);
    if (command == "health") return cmd_health(flags);
    if (command == "bind") return cmd_bind(flags);
    if (command == "unbind") return cmd_unbind(flags);
    if (command == "solve") return cmd_solve(flags);
    if (command == "control") return cmd_control(flags);
    if (command == "lut") return cmd_lut(flags);
    if (command == "transient") return cmd_transient(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "top") return cmd_top(flags);
    if (command == "trace") return cmd_trace(flags);
  } catch (const serve::TransportError& e) {
    std::fprintf(stderr, "error [transport/%s]: %s\n",
                 serve::to_string(e.kind()), e.what());
    return e.kind() == serve::TransportError::Kind::kTimeout ? kExitTimeout
                                                             : kExitConnect;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "error [%s]: %s\n", e.code().c_str(),
                 e.message().c_str());
    if (e.code() == serve::kErrOverloaded ||
        e.code() == serve::kErrShuttingDown) {
      return kExitOverloaded;
    }
    return e.code() == serve::kErrInternal ? kExitInternal : kExitProtocol;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitError;
  }
  usage();
}
