// End-to-end tests for the oftec cluster: a protocol-v1 client pointed at
// the router must see exactly the single-node contract — bit-identical
// solves, the same error codes — while sessions shard across workers,
// migrate transparently after a worker death, and admission control sheds
// deterministically before any worker saturates. Later suites cover the
// robustness tentpole: process-isolated workers (fork/exec + instant crash
// reaping), crash-loop backoff, live add/remove-worker rebalancing, and
// journal-backed session recovery across a router restart.
#include "cluster/cluster.h"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/resilient_client.h"
#include "serve/server.h"

namespace oftec::cluster {
namespace {

using namespace std::chrono_literals;
using serve::BindParams;
using serve::BindReply;
using serve::Client;
using serve::ProtocolError;
using serve::ResilientClient;
using serve::SolveReply;

constexpr std::size_t kGrid = 8;  // keeps each solve at ~a millisecond

BindParams susan_bind() {
  BindParams params;
  params.benchmark = "susan";
  params.grid_nx = kGrid;
  params.grid_ny = kGrid;
  return params;
}

/// Cluster tuned for deterministic tests: the background prober is parked
/// on a long interval and every pass is driven explicitly via probe_now().
ClusterOptions test_options(std::size_t workers) {
  ClusterOptions opts;
  opts.supervisor.workers = workers;
  opts.supervisor.probe_interval_ms = 60000;
  opts.supervisor.probe_timeout_ms = 250;
  opts.supervisor.fail_threshold = 2;
  return opts;
}

void expect_same_solve(const SolveReply& a, const SolveReply& b) {
  EXPECT_EQ(a.runaway, b.runaway);
  EXPECT_EQ(a.max_chip_temperature_k, b.max_chip_temperature_k);
  EXPECT_EQ(a.leakage_w, b.leakage_w);
  EXPECT_EQ(a.tec_w, b.tec_w);
  EXPECT_EQ(a.fan_w, b.fan_w);
}

/// Path of the oftec_client binary for process-mode tests ("" when the
/// build did not provide one).
std::string process_binary() {
#ifdef OFTEC_CLIENT_BIN
  return OFTEC_CLIENT_BIN;
#else
  return "";
#endif
}

#define SKIP_WITHOUT_WORKER_BINARY()                                     \
  do {                                                                   \
    if (process_binary().empty() ||                                     \
        ::access(process_binary().c_str(), X_OK) != 0) {                 \
      GTEST_SKIP() << "oftec_client binary not available for "          \
                      "process-mode workers";                            \
    }                                                                    \
  } while (0)

/// Drive explicit probe passes until `pred` holds (or `limit` expires) —
/// process workers exit asynchronously, so reaping needs a bounded loop.
template <typename Pred>
void probe_until(Cluster& cluster, Pred pred,
                 std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    cluster.supervisor().probe_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// One solve per bound session at a fixed operating point (bit-identity
/// probes for the rebalance tests).
std::vector<SolveReply> solve_all(Client& client,
                                  const std::vector<BindReply>& chips) {
  std::vector<SolveReply> out;
  out.reserve(chips.size());
  for (const BindReply& chip : chips) {
    out.push_back(client.solve(chip.session, 0.5 * chip.omega_max, 0.25));
  }
  return out;
}

TEST(ClusterLoopback, SolvesBitIdenticalToSingleNodeAcrossShards) {
  // Reference: one stock server, one session, direct solves.
  serve::Server reference;
  reference.start();
  Client ref_client = Client::connect(reference.port());
  const BindReply ref_chip = ref_client.bind(susan_bind());

  std::vector<SolveReply> expected;
  for (int i = 0; i < 6; ++i) {
    expected.push_back(ref_client.solve(
        ref_chip.session, (0.3 + 0.1 * i) * ref_chip.omega_max, 0.2));
  }

  // Cluster: 4 workers, 8 sessions sharded by the ring.
  Cluster cluster(test_options(4));
  cluster.start();
  Client client = Client::connect(cluster.port());
  client.ping();

  std::vector<BindReply> chips;
  std::set<std::uint32_t> slots;
  for (int s = 0; s < 8; ++s) {
    chips.push_back(client.bind(susan_bind()));
    slots.insert(cluster.router().owner_slot(chips.back().session));
  }
  EXPECT_GT(slots.size(), 1u) << "8 sessions should shard across workers";
  EXPECT_EQ(cluster.router().session_count(), 8u);

  for (const BindReply& chip : chips) {
    EXPECT_EQ(chip.omega_max, ref_chip.omega_max);
    for (int i = 0; i < 6; ++i) {
      const SolveReply r = client.solve(
          chip.session, (0.3 + 0.1 * i) * chip.omega_max, 0.2);
      expect_same_solve(r, expected[static_cast<std::size_t>(i)]);
      // The router passes the owning worker's timing block through.
      const serve::TimingInfo t = client.last_timing();
      ASSERT_TRUE(t.present) << "routed solve lost the worker's timing";
      EXPECT_GT(t.solve_us, 0.0);
      EXPECT_LE(t.queue_us + t.batch_us + t.solve_us,
                t.total_us * (1.0 + 1e-9) + 1e-3);
    }
  }
  EXPECT_GT(cluster.router().counters().forwarded, 0u);
  EXPECT_EQ(cluster.router().counters().shed, 0u);

  cluster.stop();
  reference.stop();
}

TEST(ClusterLoopback, UnbindMirrorsSingleNodeSemantics) {
  Cluster cluster(test_options(2));
  cluster.start();
  Client client = Client::connect(cluster.port());

  const BindReply chip = client.bind(susan_bind());
  EXPECT_EQ(cluster.router().session_count(), 1u);
  EXPECT_TRUE(client.unbind(chip.session));
  EXPECT_FALSE(client.unbind(chip.session));  // ok + removed=false, not error
  EXPECT_EQ(cluster.router().session_count(), 0u);

  try {
    (void)client.solve(chip.session, 100.0, 0.0);
    FAIL() << "solve on an unbound session must fail";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrUnknownSession);
  }
  client.ping();  // connection survived the structured error
  cluster.stop();
}

TEST(ClusterLoopback, SessionMigratesBitIdenticallyAfterWorkerDeath) {
  Cluster cluster(test_options(2));
  cluster.start();
  Client client = Client::connect(cluster.port());

  const BindReply chip = client.bind(susan_bind());
  const std::uint32_t victim = cluster.router().owner_slot(chip.session);

  std::vector<SolveReply> before;
  for (int i = 0; i < 4; ++i) {
    before.push_back(
        client.solve(chip.session, (0.4 + 0.1 * i) * chip.omega_max, 0.3));
  }

  // Crash the owning worker; two explicit probe passes cross the failure
  // threshold and respawn a replacement on the sticky port.
  cluster.supervisor().kill_worker(victim);
  cluster.supervisor().probe_now();
  cluster.supervisor().probe_now();
  EXPECT_GE(cluster.supervisor().restarts(), 1u);
  EXPECT_EQ(cluster.supervisor().port_of(victim),
            cluster.supervisor().info(victim).port);

  // The very next solve rides through: the router sees kErrUnknownSession
  // from the fresh worker, replays the cached bind, and retries — the
  // client keeps its session id and gets the same bits.
  for (int i = 0; i < 4; ++i) {
    const SolveReply r =
        client.solve(chip.session, (0.4 + 0.1 * i) * chip.omega_max, 0.3);
    expect_same_solve(r, before[static_cast<std::size_t>(i)]);
  }
  EXPECT_GE(cluster.router().counters().migrations, 1u);
  cluster.stop();
}

TEST(ClusterLoopback, ShedsDeterministicallyAtTheInflightCap) {
  ClusterOptions opts = test_options(2);
  opts.supervisor.worker_server.enable_test_requests = true;
  opts.router.max_inflight = 1;
  opts.router.retry_after_ms = 25.0;
  Cluster cluster(opts);
  cluster.start();

  // Occupy the single inflight slot with a pipelined sleep...
  Client busy = Client::connect(cluster.port());
  serve::Request nap;
  nap.type = serve::RequestType::kSleep;
  nap.params = serve::SleepParams{400.0};
  const std::uint64_t nap_id = busy.send(std::move(nap));
  std::this_thread::sleep_for(100ms);

  // ...so the next unit of work is shed with the backpressure hint.
  Client second = Client::connect(cluster.port());
  try {
    (void)second.bind(susan_bind());
    FAIL() << "bind past the inflight cap must shed";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrOverloaded);
    EXPECT_EQ(e.retry_after_ms(), 25.0);
  }
  EXPECT_GE(cluster.router().counters().shed, 1u);

  // The occupied slot drains and the cluster accepts work again.
  const serve::Response napped = busy.recv_for(nap_id);
  EXPECT_TRUE(napped.ok);
  const BindReply chip = second.bind(susan_bind());
  EXPECT_GT(chip.session, 0u);
  cluster.stop();
}

TEST(ClusterLoopback, HealthAndStatsAggregateTheWholeCluster) {
  Cluster cluster(test_options(3));
  cluster.start();
  Client client = Client::connect(cluster.port());

  serve::HealthReply h = client.health();
  EXPECT_TRUE(h.healthy);
  EXPECT_TRUE(h.accepting);
  EXPECT_EQ(h.sessions, 0u);
  EXPECT_GT(h.queue_capacity, 0u);  // summed across probed workers
  EXPECT_GT(h.uptime_ms, 0.0);

  (void)client.bind(susan_bind());
  (void)client.bind(susan_bind());
  h = client.health();
  EXPECT_EQ(h.sessions, 2u);

  const util::json::Value stats = client.stats(serve::StatsParams{});
  ASSERT_NE(stats.find("cluster"), nullptr);
  EXPECT_TRUE(stats.find("cluster")->as_bool());
  ASSERT_NE(stats.find("router"), nullptr);
  EXPECT_EQ(stats.find("router")->find("workers")->as_number(), 3.0);
  EXPECT_EQ(stats.find("router")->find("sessions")->as_number(), 2.0);
  ASSERT_NE(stats.find("workers"), nullptr);
  ASSERT_EQ(stats.find("workers")->as_array().size(), 3u);
  for (const util::json::Value& w : stats.find("workers")->as_array()) {
    EXPECT_EQ(w.find("state")->as_string(), "alive");
    ASSERT_NE(w.find("stats"), nullptr) << "live workers embed their stats";
    EXPECT_NE(w.find("stats")->find("server"), nullptr);
  }
  cluster.stop();
}

TEST(ClusterLoopback, AttachModeFrontsExternallyManagedServers) {
  // Two stock servers someone else owns; the cluster only probes them.
  serve::Server a;
  serve::Server b;
  a.start();
  b.start();

  ClusterOptions opts = test_options(2);
  opts.attach_ports = {a.port(), b.port()};
  Cluster cluster(opts);
  cluster.start();

  Client client = Client::connect(cluster.port());
  const BindReply chip = client.bind(susan_bind());
  const SolveReply direct_check =
      client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(direct_check.runaway);
  Client ca = Client::connect(a.port());
  Client cb = Client::connect(b.port());
  EXPECT_EQ(ca.health().sessions + cb.health().sessions, 1u)
      << "the bind landed on exactly one attached server";

  cluster.stop();
  // Attached servers outlive the cluster — they were never owned by it.
  Client still_up = Client::connect(a.port());
  still_up.ping();
  a.stop();
  b.stop();
}

TEST(ClusterProcessMode, ForkExecWorkersServeBitIdenticalAndReapCrashes) {
  SKIP_WITHOUT_WORKER_BINARY();
  // Reference bits from one stock in-process server.
  serve::Server reference;
  reference.start();
  Client ref_client = Client::connect(reference.port());
  const BindReply ref_chip = ref_client.bind(susan_bind());
  const SolveReply expected =
      ref_client.solve(ref_chip.session, 0.5 * ref_chip.omega_max, 0.25);
  reference.stop();

  ClusterOptions opts = test_options(2);
  opts.worker_mode = WorkerMode::kProcess;
  opts.process.binary = process_binary();
  Cluster cluster(opts);
  cluster.start();
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    EXPECT_EQ(cluster.supervisor().info(slot).state, WorkerState::kAlive)
        << "slot " << slot;
  }

  Client client = Client::connect(cluster.port());
  const BindReply chip = client.bind(susan_bind());
  EXPECT_EQ(chip.omega_max, ref_chip.omega_max);
  expect_same_solve(client.solve(chip.session, 0.5 * chip.omega_max, 0.25),
                    expected);

  // SIGKILL the owning process: waitpid-based reaping must see the signal
  // on the next probe pass — no waiting out fail_threshold probe timeouts
  // — and respawn immediately (first death in the streak).
  const std::uint32_t victim = cluster.router().owner_slot(chip.session);
  const std::uint64_t restarts_before = cluster.supervisor().restarts();
  cluster.supervisor().kill_worker(victim);
  probe_until(cluster, [&] {
    return cluster.supervisor().restarts() > restarts_before &&
           cluster.supervisor().info(victim).state == WorkerState::kAlive;
  });
  const Supervisor::WorkerInfo info = cluster.supervisor().info(victim);
  ASSERT_EQ(info.state, WorkerState::kAlive);
  ASSERT_TRUE(info.last_exit.has_value())
      << "a reaped process death must record its exit";
  EXPECT_TRUE(info.last_exit->signaled);
  EXPECT_EQ(info.last_exit->value, SIGKILL);
  EXPECT_EQ(info.consecutive_crashes, 1);

  // Same session id, same bits, across the crash (router replays the bind).
  expect_same_solve(client.solve(chip.session, 0.5 * chip.omega_max, 0.25),
                    expected);
  EXPECT_GE(cluster.router().counters().migrations, 1u);
  cluster.stop();
}

TEST(ClusterSupervision, CrashLoopBackoffGatesRespawnsAndShedsTraffic) {
  ClusterOptions opts = test_options(2);
  // Every death counts into the streak (no incarnation lives long enough
  // to clear it) and the backoff windows are big enough to observe.
  opts.supervisor.stable_uptime_ms = 60000;
  opts.supervisor.restart_backoff_initial_ms = 200;
  opts.supervisor.restart_backoff_max_ms = 1000;
  opts.supervisor.crash_loop_threshold = 3;
  Cluster cluster(opts);
  cluster.start();
  Client client = Client::connect(cluster.port());

  // Bind until a session lands on slot 0 so shedding is observable there.
  BindReply chip;
  do {
    chip = client.bind(susan_bind());
  } while (cluster.router().owner_slot(chip.session) != 0);
  const SolveReply baseline =
      client.solve(chip.session, 0.5 * chip.omega_max, 0.25);

  auto crash_slot0 = [&] {
    cluster.supervisor().kill_worker(0);
    cluster.supervisor().probe_now();  // fail 1
    cluster.supervisor().probe_now();  // fail 2 = threshold -> death
  };

  // Death #1: streak 1, respawn is immediate (fast failover).
  crash_slot0();
  EXPECT_EQ(cluster.supervisor().info(0).consecutive_crashes, 1);
  EXPECT_EQ(cluster.supervisor().restarts(), 1u);

  // Death #2: streak 2 — the respawn gate holds for ~200 ms; an immediate
  // probe pass must NOT bring the worker back.
  crash_slot0();
  EXPECT_EQ(cluster.supervisor().info(0).consecutive_crashes, 2);
  cluster.supervisor().probe_now();
  EXPECT_EQ(cluster.supervisor().restarts(), 1u)
      << "respawn before the backoff deadline";
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kDead);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  cluster.supervisor().probe_now();
  EXPECT_EQ(cluster.supervisor().restarts(), 2u);

  // Death #3 crosses crash_loop_threshold: the slot surfaces
  // kCrashLooping and the router sheds for it instead of dialing a corpse.
  crash_slot0();
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kCrashLooping);
  try {
    (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.25);
    FAIL() << "solve toward a crash-looping slot must shed";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrOverloaded);
    EXPECT_GT(e.retry_after_ms(), 0.0);
  }

  // After the (capped, jittered) backoff the slot heals and the session
  // rides through with the same bits.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  cluster.supervisor().probe_now();  // respawn
  cluster.supervisor().probe_now();  // probe alive
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kAlive);
  expect_same_solve(client.solve(chip.session, 0.5 * chip.omega_max, 0.25),
                    baseline);
  cluster.stop();
}

TEST(ClusterRebalance, AddWorkerMovesTheRingDeltaAndKeepsBitsIdentical) {
  Cluster cluster(test_options(2));
  cluster.start();
  Client client = Client::connect(cluster.port());

  std::vector<BindReply> chips;
  for (int i = 0; i < 12; ++i) chips.push_back(client.bind(susan_bind()));
  const std::vector<SolveReply> before = solve_all(client, chips);

  // Consistent hashing makes the movement set exactly predictable: the
  // sessions whose owner differs between the 2-node and 3-node rings.
  HashRing two;
  two.add_node(0);
  two.add_node(1);
  HashRing three = two;
  three.add_node(2);
  std::size_t predicted = 0;
  for (const BindReply& chip : chips) {
    if (two.owner(chip.session) != three.owner(chip.session)) ++predicted;
  }

  const std::uint32_t slot = cluster.add_worker();
  EXPECT_EQ(slot, 2u);
  EXPECT_EQ(cluster.supervisor().info(slot).state, WorkerState::kAlive);

  const Router::Counters c = cluster.router().counters();
  EXPECT_EQ(c.rehomed, predicted);
  EXPECT_LE(c.rehomed, 2 * chips.size() / 3)
      << "consistent hashing must bound movement to ~1/N";
  EXPECT_EQ(cluster.router().session_count(), chips.size());
  for (const BindReply& chip : chips) {
    EXPECT_EQ(cluster.router().owner_slot(chip.session),
              three.owner(chip.session));
  }

  const std::vector<SolveReply> after = solve_all(client, chips);
  for (std::size_t i = 0; i < before.size(); ++i) {
    expect_same_solve(after[i], before[i]);
  }
  cluster.stop();
}

TEST(ClusterRebalance, RemoveWorkerDrainsRehomesAndRetiresTheSlot) {
  Cluster cluster(test_options(3));
  cluster.start();
  Client client = Client::connect(cluster.port());

  std::vector<BindReply> chips;
  for (int i = 0; i < 12; ++i) chips.push_back(client.bind(susan_bind()));
  const std::vector<SolveReply> before = solve_all(client, chips);

  // Retire whichever slot owns the first session (guaranteed non-empty
  // movement), and predict the exact set that must move: its sessions.
  const std::uint32_t victim = cluster.router().owner_slot(chips[0].session);
  std::size_t owned = 0;
  for (const BindReply& chip : chips) {
    if (cluster.router().owner_slot(chip.session) == victim) ++owned;
  }
  ASSERT_GT(owned, 0u);

  const Router::RebalanceReport report = cluster.remove_worker(victim);
  EXPECT_EQ(report.total_sessions, chips.size());
  EXPECT_EQ(report.moved, owned);
  EXPECT_EQ(report.replay_failures, 0u);
  EXPECT_EQ(cluster.supervisor().info(victim).state, WorkerState::kRetired);

  for (const BindReply& chip : chips) {
    EXPECT_NE(cluster.router().owner_slot(chip.session), victim);
  }
  const std::vector<SolveReply> after = solve_all(client, chips);
  for (std::size_t i = 0; i < before.size(); ++i) {
    expect_same_solve(after[i], before[i]);
  }

  // Health still aggregates a healthy cluster (retired slots are skipped),
  // and no session was double-bound: worker-side session counts sum to the
  // router's.
  const serve::HealthReply h = client.health();
  EXPECT_TRUE(h.healthy);
  EXPECT_EQ(h.sessions, chips.size());
  std::uint64_t worker_side = 0;
  for (const auto& w : cluster.supervisor().snapshot()) {
    if (w.state == WorkerState::kRetired) continue;
    worker_side += Client::connect(w.port).health().sessions;
  }
  EXPECT_EQ(worker_side, chips.size());
  cluster.stop();
}

TEST(ClusterLoopback, ConcurrentReplayAfterRestartBindsExactlyOnce) {
  Cluster cluster(test_options(2));
  cluster.start();
  Client setup = Client::connect(cluster.port());
  const BindReply chip = setup.bind(susan_bind());
  const SolveReply baseline =
      setup.solve(chip.session, 0.5 * chip.omega_max, 0.25);

  // Kill + respawn the owner: the worker comes back empty, so the next
  // forward from EVERY connection sees kErrUnknownSession at once.
  const std::uint32_t owner = cluster.router().owner_slot(chip.session);
  cluster.supervisor().kill_worker(owner);
  cluster.supervisor().probe_now();
  cluster.supervisor().probe_now();
  ASSERT_GE(cluster.supervisor().restarts(), 1u);

  // Two connections race the replay for the same session. The per-session
  // mutex must make the bind replay single-flight: both solves succeed
  // with the same bits and the worker holds exactly one session after.
  std::vector<std::thread> racers;
  std::vector<SolveReply> results(2);
  for (int t = 0; t < 2; ++t) {
    racers.emplace_back([&, t] {
      Client racer = Client::connect(cluster.port());
      results[static_cast<std::size_t>(t)] =
          racer.solve(chip.session, 0.5 * chip.omega_max, 0.25);
    });
  }
  for (std::thread& t : racers) t.join();
  expect_same_solve(results[0], baseline);
  expect_same_solve(results[1], baseline);

  Client direct = Client::connect(cluster.supervisor().port_of(owner));
  EXPECT_EQ(direct.health().sessions, 1u)
      << "a concurrent replay double-bound the session";
  EXPECT_EQ(cluster.router().counters().migrations, 1u);
  cluster.stop();
}

TEST(ClusterLoopback, ResilientClientRidesSheddingAndRebalance) {
  ClusterOptions opts = test_options(2);
  opts.supervisor.worker_server.enable_test_requests = true;
  opts.router.max_inflight = 1;
  opts.router.retry_after_ms = 10.0;
  Cluster cluster(opts);
  cluster.start();

  // Occupy the only inflight slot; a ResilientClient arriving now is shed
  // with retry_after_ms and must absorb it (bounded retries, not an error).
  Client busy = Client::connect(cluster.port());
  serve::Request nap;
  nap.type = serve::RequestType::kSleep;
  nap.params = serve::SleepParams{300.0};
  const std::uint64_t nap_id = busy.send(std::move(nap));
  std::this_thread::sleep_for(50ms);

  ResilientClient::Options copts;
  copts.retry.max_attempts = 20;
  copts.retry.initial_backoff_ms = 20.0;
  copts.retry.max_backoff_ms = 100.0;
  ResilientClient client(cluster.port(), copts);
  const BindReply chip = client.bind(susan_bind());  // succeeds via retries
  EXPECT_GT(chip.session, 0u);
  EXPECT_GE(cluster.router().counters().shed, 1u);
  EXPECT_TRUE(busy.recv_for(nap_id).ok);

  const SolveReply baseline = client.solve(0.5 * chip.omega_max, 0.25);

  // Rebalance mid-stream: grow the ring while the client keeps solving.
  // Whatever moves, the client's session id and bits never change, and the
  // session exists on exactly one worker afterwards.
  (void)cluster.add_worker();
  for (int i = 0; i < 3; ++i) {
    expect_same_solve(client.solve(0.5 * chip.omega_max, 0.25), baseline);
  }
  std::uint64_t worker_side = 0;
  for (const auto& w : cluster.supervisor().snapshot()) {
    worker_side += Client::connect(w.port).health().sessions;
  }
  EXPECT_EQ(worker_side, cluster.router().session_count());
  cluster.stop();
}

TEST(ClusterJournal, RouterRestartRecoversEverySessionWithoutRebinding) {
  const std::string journal = ::testing::TempDir() + "oftec_bind_journal_" +
                              std::to_string(::getpid()) + ".ofj";
  std::remove(journal.c_str());
  ClusterOptions opts = test_options(3);
  opts.router.journal_path = journal;

  std::vector<std::uint64_t> sessions;
  std::vector<SolveReply> before;
  std::uint64_t unbound = 0;
  double omega_max = 0.0;
  {
    Cluster cluster(opts);
    cluster.start();
    Client client = Client::connect(cluster.port());
    for (int i = 0; i < 6; ++i) {
      const BindReply chip = client.bind(susan_bind());
      omega_max = chip.omega_max;
      sessions.push_back(chip.session);
      before.push_back(client.solve(chip.session, 0.5 * omega_max, 0.25));
    }
    // One unbind: its tombstone must survive recovery too.
    unbound = sessions.back();
    sessions.pop_back();
    before.pop_back();
    EXPECT_TRUE(client.unbind(unbound));
    cluster.stop();
  }

  // A brand-new cluster (fresh workers, fresh ports) over the same journal
  // serves every previously bound session — the clients never re-register.
  Cluster restarted(opts);
  restarted.start();
  EXPECT_EQ(restarted.router().counters().recovered, sessions.size());
  EXPECT_EQ(restarted.router().session_count(), sessions.size());

  Client client = Client::connect(restarted.port());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SolveReply r = client.solve(sessions[i], 0.5 * omega_max, 0.25);
    expect_same_solve(r, before[i]);
  }
  try {
    (void)client.solve(unbound, 0.5 * omega_max, 0.25);
    FAIL() << "an unbound session must not be resurrected";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrUnknownSession);
  }
  restarted.stop();
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace oftec::cluster
