// bench_serve — what the serving layer's micro-batcher buys.
//
// Eight concurrent clients sweep the SAME operating-point grid against one
// chip session (the replicated-controller deployment: many control agents
// asking one thermal oracle the same questions). Two server configurations
// are timed over identical request streams:
//
//   serial dispatch  max_batch_size = 1  — every request is its own engine
//                                          call, in arrival order;
//   micro-batched    max_batch_size = 64 — concurrent requests coalesce,
//                                          identical (ω, I) points are
//                                          answered by one solve, and warm
//                                          factorizations are reused.
//
// Sessions are bound with direct_solve=true, so every solve runs the cached
// banded-Cholesky path and the engine's factor-cache hit rate is visible in
// the stats. A warm-up sweep by one client pre-populates the factor cache —
// the steady state of a long-running service.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"

namespace {

using namespace oftec;

constexpr std::size_t kClients = 8;
constexpr std::size_t kGridSide = 5;  // 25 points per client per pass

struct RunResult {
  double wall_ms = 0.0;
  serve::Server::Counters counters;
  std::uint64_t engine_points = 0;
  std::uint64_t factor_hits = 0;
  std::uint64_t factorizations = 0;
};

/// One client: pipeline the full grid, then collect every response.
void run_client(std::uint16_t port, std::uint64_t session, double omega_max,
                double current_max) {
  serve::Client client = serve::Client::connect(port);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < kGridSide; ++i) {
    for (std::size_t j = 0; j < kGridSide; ++j) {
      const double omega =
          omega_max * (0.2 + 0.8 * static_cast<double>(i) /
                                 static_cast<double>(kGridSide - 1));
      const double current =
          current_max * (0.1 + 0.6 * static_cast<double>(j) /
                                   static_cast<double>(kGridSide - 1));
      (void)client.send_solve(session, omega, current);
      ++sent;
    }
  }
  for (std::size_t i = 0; i < sent; ++i) (void)client.recv();
}

RunResult run_scenario(std::size_t max_batch_size) {
  serve::ServerOptions opts;
  opts.max_batch_size = max_batch_size;
  serve::Server server(opts);
  server.start();

  serve::Client admin = serve::Client::connect(server.port());
  serve::BindParams bind;
  bind.benchmark = "susan";
  bind.grid_nx = 8;
  bind.grid_ny = 8;
  bind.direct_solve = true;  // every solve through the cached factor path
  const serve::BindReply chip = admin.bind(bind);

  // Warm-up: one pass over the grid primes the factor cache, as in a
  // long-running deployment.
  run_client(server.port(), chip.session, chip.omega_max, chip.current_max);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(run_client, server.port(), chip.session,
                         chip.omega_max, chip.current_max);
  }
  for (std::thread& t : clients) t.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  r.counters = server.counters();
  const util::json::Value stats = admin.stats(chip.session);
  const util::json::Value& engine = *stats.find("session")->find("engine");
  r.engine_points =
      static_cast<std::uint64_t>(engine.find("points")->as_number());
  r.factor_hits =
      static_cast<std::uint64_t>(engine.find("factor_hits")->as_number());
  r.factorizations =
      static_cast<std::uint64_t>(engine.find("factorizations")->as_number());
  server.stop();
  return r;
}

void print_row(const char* label, const RunResult& r) {
  const std::uint64_t total = kClients * kGridSide * kGridSide;
  const double mean_batch =
      r.counters.batches > 0
          ? static_cast<double>(r.counters.batched_points) /
                static_cast<double>(r.counters.batches)
          : 0.0;
  std::printf("%-14s %9.1f ms  %5llu reqs -> %5llu solves  "
              "dedup=%llu  batches=%llu (mean %.2f)  "
              "factor hits/factorizations=%llu/%llu\n",
              label, r.wall_ms, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(r.engine_points),
              static_cast<unsigned long long>(r.counters.dedup_hits),
              static_cast<unsigned long long>(r.counters.batches), mean_batch,
              static_cast<unsigned long long>(r.factor_hits),
              static_cast<unsigned long long>(r.factorizations));
}

}  // namespace

int main() {
  bench::print_header(
      "serve",
      "oftec-serve micro-batching: concurrent clients sweeping the same "
      "operating points share solves and warm factorizations");

  std::printf("%zu clients x %zu points each, one shared session "
              "(8x8 grid, direct solves)\n\n",
              kClients, kGridSide * kGridSide);

  const RunResult serial = run_scenario(/*max_batch_size=*/1);
  const RunResult batched = run_scenario(/*max_batch_size=*/64);

  print_row("serial", serial);
  print_row("batched", batched);

  const double speedup =
      batched.wall_ms > 0.0 ? serial.wall_ms / batched.wall_ms : 0.0;
  std::printf("\nbatched/serial speedup: %.2fx  (batch dedup removed %llu of "
              "%llu queued solves)\n",
              speedup,
              static_cast<unsigned long long>(batched.counters.dedup_hits),
              static_cast<unsigned long long>(
                  batched.counters.batched_points));
  if (batched.factor_hits == 0) {
    std::printf("WARNING: factor cache never hit — check "
                "EngineOptions::use_iterative plumbing\n");
    return 1;
  }
  if (batched.counters.dedup_hits == 0) {
    std::printf("WARNING: no dedup hits — concurrent identical requests "
                "never shared a batch\n");
    return 1;
  }
  return 0;
}
