// Chaos tests for the cluster stack: with the cluster.* fault sites armed
// at the acceptance rate (10 %, fixed seeds) and workers being killed and
// restarted mid-traffic, resilient clients pointed at the router must see
// zero lost sessions — only retryable transient errors — and every solve
// that completes must be bit-identical to the faultless single-node answer.
#include "cluster/cluster.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/resilient_client.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/obs.h"

namespace oftec::cluster {
namespace {

using namespace std::chrono_literals;
using serve::BindParams;
using serve::BindReply;
using serve::ProtocolError;
using serve::ResilientClient;
using serve::SolveReply;
using serve::TransportError;

class ChaosClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce(); }
  void TearDown() override { quiesce(); }
  static void quiesce() {
    fault::disarm_all();
    fault::reset_counters();
    obs::set_enabled(false);
    obs::reset();
  }
};

BindParams susan_bind() {
  BindParams params;
  params.benchmark = "susan";
  params.grid_nx = 8;
  params.grid_ny = 8;
  return params;
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

/// Fresh per-test journal path under the gtest temp dir (removes any
/// leftover file from a previous run of the same pid).
std::string fresh_journal(const char* tag) {
  std::string path = ::testing::TempDir() + "oftec_chaos_" + tag + "_" +
                     std::to_string(::getpid()) + ".ofj";
  std::remove(path.c_str());
  return path;
}

/// Many attempts, short sleeps: a worker death plus its probe-driven
/// restart must fit inside one RPC's retry budget.
ResilientClient::Options chaos_options() {
  ResilientClient::Options o;
  o.retry.max_attempts = 30;
  o.retry.initial_backoff_ms = 1.0;
  o.retry.max_backoff_ms = 20.0;
  o.breaker.failure_threshold = 8;
  o.breaker.open_ms = 10.0;
  return o;
}

TEST_F(ChaosClusterTest, SpawnFaultsDelayWorkersWithoutKillingTheCluster) {
  // Every spawn fails at first: the cluster comes up with dead slots, the
  // router sheds (structured, retryable), and once the fault clears the
  // prober heals the fleet and traffic flows.
  (void)fault::arm("cluster.worker_spawn", 1.0, 11);
  ClusterOptions opts;
  opts.supervisor.workers = 2;
  opts.supervisor.probe_interval_ms = 60000;  // passes driven explicitly
  opts.supervisor.fail_threshold = 2;
  Cluster cluster(opts);
  cluster.start();
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kDead);
  EXPECT_EQ(cluster.supervisor().info(1).state, WorkerState::kDead);

  serve::Client client = serve::Client::connect(cluster.port());
  try {
    (void)client.bind(susan_bind());
    FAIL() << "bind with no spawned workers must shed, not hang";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrOverloaded);
    EXPECT_GT(e.retry_after_ms(), 0.0);
  }

  fault::disarm_all();
  cluster.supervisor().probe_now();  // heals: spawns both workers
  cluster.supervisor().probe_now();  // probes them alive
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kAlive);
  EXPECT_EQ(cluster.supervisor().info(1).state, WorkerState::kAlive);

  const BindReply chip = client.bind(susan_bind());
  const SolveReply r = client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  cluster.stop();
}

TEST_F(ChaosClusterTest, ProbeTimeoutsAloneNeverRestartAHealthyWorker) {
  // Injected probe timeouts below the failure threshold must not cross it:
  // the slot degrades on paper but the worker is never torn down, and
  // in-flight traffic is untouched.
  ClusterOptions opts;
  opts.supervisor.workers = 2;
  opts.supervisor.probe_interval_ms = 60000;
  // Only the injected timeouts may fail a probe: a real one must not fire
  // on a healthy worker that is slow to answer under CPU load. Injected
  // timeouts throw before the probe connects, so this costs no wall time.
  opts.supervisor.probe_timeout_ms = 60000;
  opts.supervisor.fail_threshold = 3;
  obs::set_enabled(true);  // counts the probes below
  Cluster cluster(opts);
  cluster.start();
  serve::Client client = serve::Client::connect(cluster.port());
  const BindReply chip = client.bind(susan_bind());
  const SolveReply baseline =
      client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  // start() runs one probe pass and starts the prober thread, whose first
  // pass runs at once and whose next is probe_interval_ms away. Wait for
  // both passes (two probes each) before arming: under CPU load the
  // thread's pass can otherwise land in the armed window as a third
  // failed probe.
  const auto probes = [] {
    return obs::snapshot().counters.at("cluster.probes");
  };
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (probes() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(probes(), 4u);

  (void)fault::arm("cluster.probe_timeout", 1.0, 12);
  cluster.supervisor().probe_now();
  cluster.supervisor().probe_now();  // 2 failures < threshold 3
  fault::disarm_all();
  EXPECT_EQ(cluster.supervisor().restarts(), 0u);

  cluster.supervisor().probe_now();  // clean probe resets the count
  EXPECT_EQ(cluster.supervisor().info(0).consecutive_failures, 0);

  const SolveReply after =
      client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_EQ(after.max_chip_temperature_k, baseline.max_chip_temperature_k);
  EXPECT_EQ(cluster.router().counters().migrations, 0u);
  cluster.stop();
}

TEST_F(ChaosClusterTest, KillRestartMidTrafficLosesNoSessionAtTenPercent) {
  // The acceptance scenario: cluster.* sites armed at 10 %, workers killed
  // mid-traffic and restarted by the prober, resilient clients hammering
  // solves the whole time. Permitted outcomes per request: success with
  // the exact faultless bits, or a retryable transient the client absorbs.
  // A lost session (unknown_session surfacing to the caller) fails the
  // test — the router's replay must hide every migration.
  serve::Server reference;
  reference.start();
  std::vector<SolveReply> expected;
  double omega_max = 0.0;
  {
    serve::Client ref = serve::Client::connect(reference.port());
    const BindReply chip = ref.bind(susan_bind());
    omega_max = chip.omega_max;
    for (int i = 0; i < 5; ++i) {
      expected.push_back(
          ref.solve(chip.session, (0.3 + 0.1 * i) * omega_max, 0.25));
    }
  }
  reference.stop();

  ClusterOptions opts;
  opts.supervisor.workers = 2;
  opts.supervisor.probe_interval_ms = 20;  // prober races the traffic
  opts.supervisor.probe_timeout_ms = 250;
  opts.supervisor.fail_threshold = 2;
  // The storm kills the same slots repeatedly; keep the crash-streak
  // backoff inside the clients' retry budget (~600 ms per RPC).
  opts.supervisor.restart_backoff_initial_ms = 1;
  opts.supervisor.restart_backoff_max_ms = 10;
  Cluster cluster(opts);
  cluster.start();

  (void)fault::arm("cluster.proxy_write", 0.1, 31);
  (void)fault::arm("cluster.probe_timeout", 0.1, 32);
  (void)fault::arm("cluster.worker_spawn", 0.1, 33);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> transient_errors{0};
  std::atomic<bool> lost_session{false};
  std::vector<std::thread> traffic;
  traffic.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    traffic.emplace_back([&, t] {
      ResilientClient::Options copts = chaos_options();
      copts.retry.jitter_seed = 100 + static_cast<std::uint64_t>(t);
      ResilientClient client(cluster.port(), copts);
      const BindReply chip = client.bind(susan_bind());
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < 5; ++i) {
          try {
            const SolveReply r =
                client.solve((0.3 + 0.1 * i) * omega_max, 0.25);
            const SolveReply& want = expected[static_cast<std::size_t>(i)];
            EXPECT_EQ(r.runaway, want.runaway);
            EXPECT_EQ(r.max_chip_temperature_k, want.max_chip_temperature_k);
            EXPECT_EQ(r.leakage_w, want.leakage_w);
            EXPECT_EQ(r.tec_w, want.tec_w);
            EXPECT_EQ(r.fan_w, want.fan_w);
            completed.fetch_add(1, std::memory_order_relaxed);
          } catch (const ProtocolError& e) {
            if (e.code() == serve::kErrUnknownSession) {
              lost_session.store(true, std::memory_order_relaxed);
            }
            transient_errors.fetch_add(1, std::memory_order_relaxed);
          } catch (const TransportError&) {
            transient_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Session survives the round: chip.session is still the id the
        // router knows us by (the client never rebinds — the ROUTER does).
        EXPECT_GT(chip.session, 0u);
      }
    });
  }

  // Chaos driver: kill alternating workers under live traffic; the prober
  // (20 ms cadence) detects and respawns on the sticky port each time.
  for (int round = 0; round < 4; ++round) {
    std::this_thread::sleep_for(150ms);
    cluster.supervisor().kill_worker(static_cast<std::uint32_t>(round % 2));
  }

  for (std::thread& t : traffic) t.join();
  fault::disarm_all();

  EXPECT_FALSE(lost_session.load())
      << "a migration leaked kErrUnknownSession to a client";
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GE(cluster.supervisor().restarts(), 1u)
      << "the chaos driver should have forced at least one restart";

  // After the storm: faults off, fleet healed, fresh traffic is exact.
  cluster.supervisor().probe_now();
  cluster.supervisor().probe_now();
  ResilientClient calm(cluster.port(), chaos_options());
  (void)calm.bind(susan_bind());
  const SolveReply r = calm.solve(0.5 * omega_max, 0.25);
  EXPECT_EQ(r.max_chip_temperature_k, expected[2].max_chip_temperature_k);
  cluster.stop();
}

void expect_same_solve(const SolveReply& got, const SolveReply& want) {
  EXPECT_EQ(got.runaway, want.runaway);
  EXPECT_EQ(got.max_chip_temperature_k, want.max_chip_temperature_k);
  EXPECT_EQ(got.leakage_w, want.leakage_w);
  EXPECT_EQ(got.tec_w, want.tec_w);
  EXPECT_EQ(got.fan_w, want.fan_w);
}

TEST_F(ChaosClusterTest, ExecSpawnFaultThenHealInProcessMode) {
  // Process-mode mirror of the spawn-fault test: with cluster.exec_spawn
  // armed the fork/exec path refuses to launch children, the cluster comes
  // up dead-but-shedding, and once the fault clears the prober fork/execs
  // real workers and traffic flows.
  SKIP_WITHOUT_WORKER_BINARY();
  (void)fault::arm("cluster.exec_spawn", 1.0, 41);
  ClusterOptions opts;
  opts.supervisor.workers = 2;
  opts.supervisor.probe_interval_ms = 60000;  // passes driven explicitly
  opts.supervisor.fail_threshold = 2;
  opts.worker_mode = WorkerMode::kProcess;
  opts.process.binary = process_binary();
  Cluster cluster(opts);
  cluster.start();
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kDead);
  EXPECT_EQ(cluster.supervisor().info(1).state, WorkerState::kDead);

  serve::Client client = serve::Client::connect(cluster.port());
  try {
    (void)client.bind(susan_bind());
    FAIL() << "bind with no exec'd workers must shed, not hang";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), serve::kErrOverloaded);
  }

  fault::disarm_all();
  cluster.supervisor().probe_now();  // heals: fork/execs both children
  cluster.supervisor().probe_now();  // probes them alive
  EXPECT_EQ(cluster.supervisor().info(0).state, WorkerState::kAlive);
  EXPECT_EQ(cluster.supervisor().info(1).state, WorkerState::kAlive);

  const BindReply chip = client.bind(susan_bind());
  const SolveReply r = client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  cluster.stop();
}

TEST_F(ChaosClusterTest, RehomeReplayFaultFallsBackToLazyRebind) {
  // With cluster.rehome_replay armed at 100 %, a remove_worker rebalance
  // cannot materialize any moved session on its new owner. The contract:
  // every move is still recorded (with replay_failures == moved), the
  // sessions fall back to the lazy-rebind sentinel, and the first solve
  // after the fault clears heals each one bit-identically.
  ClusterOptions opts;
  opts.supervisor.workers = 3;
  opts.supervisor.probe_interval_ms = 60000;
  opts.supervisor.fail_threshold = 2;
  Cluster cluster(opts);
  cluster.start();

  serve::Client client = serve::Client::connect(cluster.port());
  std::vector<BindReply> chips;
  std::vector<SolveReply> baseline;
  for (int i = 0; i < 8; ++i) {
    chips.push_back(client.bind(susan_bind()));
    baseline.push_back(
        client.solve(chips.back().session, 0.5 * chips.back().omega_max, 0.25));
  }
  const std::uint32_t victim = cluster.router().owner_slot(chips[0].session);

  (void)fault::arm("cluster.rehome_replay", 1.0, 42);
  const Router::RebalanceReport report = cluster.remove_worker(victim);
  fault::disarm_all();
  EXPECT_GT(report.moved, 0u);
  EXPECT_EQ(report.replay_failures, report.moved)
      << "every rehome should have deferred to the lazy-rebind sentinel";
  EXPECT_EQ(cluster.router().session_count(), chips.size());

  // First use after the fault: the router replays the cached bind on the
  // new owner before forwarding — no client-visible error, exact bits.
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const SolveReply healed =
        client.solve(chips[i].session, 0.5 * chips[i].omega_max, 0.25);
    expect_same_solve(healed, baseline[i]);
    EXPECT_NE(cluster.router().owner_slot(chips[i].session), victim);
  }
  cluster.stop();
}

TEST_F(ChaosClusterTest, JournalWriteFaultDegradesDurabilityOnly) {
  // A failing journal append must never fail the bind it records: serving
  // continues (bit-exact), the failure is counted, and the degradation is
  // visible only after a restart — the unjournaled sessions are gone.
  const std::string journal = fresh_journal("durability");
  ClusterOptions opts;
  opts.supervisor.workers = 2;
  opts.supervisor.probe_interval_ms = 60000;
  opts.supervisor.fail_threshold = 2;
  opts.router.journal_path = journal;

  (void)fault::arm("cluster.journal_write", 1.0, 43);
  std::vector<std::uint64_t> sessions;
  {
    Cluster cluster(opts);
    cluster.start();
    serve::Client client = serve::Client::connect(cluster.port());
    for (int i = 0; i < 4; ++i) {
      const BindReply chip = client.bind(susan_bind());
      const SolveReply r =
          client.solve(chip.session, 0.5 * chip.omega_max, 0.25);
      EXPECT_FALSE(r.runaway);
      sessions.push_back(chip.session);
    }
    EXPECT_GE(cluster.router().counters().journal_write_failures, 4u);
    cluster.stop();
  }
  fault::disarm_all();

  // Restart over the (empty) journal: nothing recovered, nothing corrupt —
  // the router comes up clean and serves fresh binds normally.
  Cluster restarted(opts);
  restarted.start();
  EXPECT_EQ(restarted.router().counters().recovered, 0u);
  EXPECT_EQ(restarted.router().session_count(), 0u);
  serve::Client client = serve::Client::connect(restarted.port());
  const BindReply chip = client.bind(susan_bind());
  const SolveReply r = client.solve(chip.session, 0.5 * chip.omega_max, 0.25);
  EXPECT_FALSE(r.runaway);
  restarted.stop();
  std::remove(journal.c_str());
}

TEST_F(ChaosClusterTest, ProcessKillStormWithTopologyChangesLosesNothing) {
  // The PR-9 acceptance scenario end to end: a process-mode cluster with a
  // bind journal, cluster.* fault sites armed at 10 %, SIGKILLed workers
  // mid-traffic PLUS one remove_worker and one add_worker — and afterwards
  // a brand-new cluster restarted over the same journal must serve every
  // previously bound session, bit-identically, without any client rebinding.
  SKIP_WITHOUT_WORKER_BINARY();
  serve::Server reference;
  reference.start();
  std::vector<SolveReply> expected;
  double omega_max = 0.0;
  {
    serve::Client ref = serve::Client::connect(reference.port());
    const BindReply chip = ref.bind(susan_bind());
    omega_max = chip.omega_max;
    for (int i = 0; i < 3; ++i) {
      expected.push_back(
          ref.solve(chip.session, (0.3 + 0.1 * i) * omega_max, 0.25));
    }
  }
  reference.stop();

  const std::string journal = fresh_journal("acceptance");
  ClusterOptions opts;
  opts.supervisor.workers = 3;
  opts.supervisor.probe_interval_ms = 20;  // prober races the traffic
  opts.supervisor.probe_timeout_ms = 250;
  opts.supervisor.fail_threshold = 2;
  opts.supervisor.restart_backoff_initial_ms = 1;
  opts.supervisor.restart_backoff_max_ms = 10;
  opts.worker_mode = WorkerMode::kProcess;
  opts.process.binary = process_binary();
  opts.router.journal_path = journal;

  std::vector<std::uint64_t> sessions;
  {
    Cluster cluster(opts);
    cluster.start();

    (void)fault::arm("cluster.proxy_write", 0.1, 51);
    (void)fault::arm("cluster.probe_timeout", 0.1, 52);
    (void)fault::arm("cluster.rehome_replay", 0.1, 53);

    constexpr int kThreads = 4;
    constexpr int kRounds = 5;
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> lost_session{false};
    std::mutex sessions_mu;
    std::vector<std::thread> traffic;
    traffic.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      traffic.emplace_back([&, t] {
        ResilientClient::Options copts = chaos_options();
        copts.retry.jitter_seed = 200 + static_cast<std::uint64_t>(t);
        ResilientClient client(cluster.port(), copts);
        const BindReply chip = client.bind(susan_bind());
        {
          std::lock_guard<std::mutex> lk(sessions_mu);
          sessions.push_back(chip.session);
        }
        for (int round = 0; round < kRounds; ++round) {
          for (int i = 0; i < 3; ++i) {
            try {
              const SolveReply r =
                  client.solve((0.3 + 0.1 * i) * omega_max, 0.25);
              expect_same_solve(r, expected[static_cast<std::size_t>(i)]);
              completed.fetch_add(1, std::memory_order_relaxed);
            } catch (const ProtocolError& e) {
              if (e.code() == serve::kErrUnknownSession) {
                lost_session.store(true, std::memory_order_relaxed);
              }
            } catch (const TransportError&) {
              // retried away or absorbed; transport noise is permitted
            }
          }
        }
      });
    }

    // Chaos driver: SIGKILL workers under live traffic, then shrink and
    // regrow the topology while the storm continues.
    std::this_thread::sleep_for(150ms);
    cluster.supervisor().kill_worker(0);
    std::this_thread::sleep_for(150ms);
    cluster.supervisor().kill_worker(1);
    std::this_thread::sleep_for(150ms);
    const Router::RebalanceReport removed = cluster.remove_worker(2);
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      EXPECT_EQ(removed.total_sessions, sessions.size());
    }
    std::this_thread::sleep_for(100ms);
    const std::uint32_t added = cluster.add_worker();
    EXPECT_GE(added, 3u);
    std::this_thread::sleep_for(150ms);
    cluster.supervisor().kill_worker(0);

    for (std::thread& t : traffic) t.join();
    fault::disarm_all();

    EXPECT_FALSE(lost_session.load())
        << "a crash/rebalance leaked kErrUnknownSession to a client";
    EXPECT_GT(completed.load(), 0u);
    EXPECT_GE(cluster.supervisor().restarts(), 1u);
    EXPECT_EQ(cluster.router().session_count(), sessions.size());

    // Calm after the storm: every session answers exactly, wherever the
    // storm and the two topology changes left it.
    serve::Client calm = serve::Client::connect(cluster.port());
    for (const std::uint64_t sid : sessions) {
      expect_same_solve(calm.solve(sid, 0.5 * omega_max, 0.25), expected[2]);
    }
    cluster.stop();
  }

  // Router restart from the journal: a brand-new cluster over the same
  // journal recovers every bound session and serves it without any client
  // re-registration (lazy rebind materializes each on first use).
  Cluster restarted(opts);
  restarted.start();
  EXPECT_EQ(restarted.router().counters().recovered, sessions.size());
  EXPECT_EQ(restarted.router().session_count(), sessions.size());
  serve::Client client = serve::Client::connect(restarted.port());
  for (const std::uint64_t sid : sessions) {
    expect_same_solve(client.solve(sid, 0.5 * omega_max, 0.25), expected[2]);
  }
  restarted.stop();
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace oftec::cluster
