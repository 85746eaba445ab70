// End-to-end tests for the oftec-serve server core: the tier-1 loopback
// smoke test (concurrent clients, responses bit-identical to direct
// CoolingSystem calls), deterministic overload shedding, deadline expiry,
// and graceful drain-on-shutdown.
#include "serve/server.h"

#include <sys/socket.h>

#include <chrono>
#include <csignal>
#include <map>
#include <thread>
#include <vector>

#include "core/cooling_system.h"
#include "floorplan/ev6.h"
#include "gtest/gtest.h"
#include "power/mcpat_like.h"
#include "serve/client.h"
#include "workload/benchmarks.h"

namespace oftec::serve {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kGrid = 8;  // keeps each solve at ~a millisecond

BindParams susan_bind() {
  BindParams params;
  params.benchmark = "susan";
  params.grid_nx = kGrid;
  params.grid_ny = kGrid;
  return params;
}

/// Spin until `pred` holds (deadline-guarded so a regression fails loudly
/// instead of hanging the suite).
template <typename Pred>
void wait_until(Pred pred, std::chrono::milliseconds limit = 5000ms) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "condition not reached in time";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(ServeServer, PingBindSolveUnbind) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  client.ping();

  const BindReply chip = client.bind(susan_bind());
  EXPECT_GT(chip.session, 0u);
  EXPECT_GT(chip.omega_max, 0.0);
  EXPECT_TRUE(chip.has_tec);
  EXPECT_FALSE(chip.blocks.empty());

  const SolveReply r =
      client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  EXPECT_GT(r.max_chip_temperature_k, 300.0);
  EXPECT_GT(r.leakage_w, 0.0);

  EXPECT_TRUE(client.unbind(chip.session));
  EXPECT_FALSE(client.unbind(chip.session));
  try {
    (void)client.solve(chip.session, 100.0, 0.0);
    FAIL() << "solve on an unbound session must fail";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), kErrUnknownSession);
  }
  server.stop();
}

TEST(ServeServer, StructuredErrorsForBadInput) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  try {  // operating point outside the box
    (void)client.solve(chip.session, 10.0 * chip.omega_max, 0.0);
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest);
  }
  try {  // no LUT was trained at bind time
    (void)client.lut(chip.session, std::vector<double>(chip.blocks.size(), 1.0));
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest);
  }
  try {  // unknown benchmark is a structured error, not a dropped connection
    BindParams bad = susan_bind();
    bad.benchmark = "no-such-benchmark";
    (void)client.bind(bad);
    FAIL();
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest);
  }
  client.ping();  // connection survived all of the above
  server.stop();
}

TEST(ServeServer, MalformedFrameDropsConnectionOnly) {
  Server server;
  server.start();
  Client good = Client::connect(server.port());
  const BindReply chip = good.bind(susan_bind());

  // A raw socket sends garbage bytes with an honest frame prefix: the server
  // answers with a structured bad_request (the frame was well-formed).
  Socket raw = Socket::connect_loopback(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(write_frame(raw.fd(), "this is not json"));
  std::string payload;
  ASSERT_EQ(read_frame(raw.fd(), payload, kDefaultMaxFrameBytes),
            ReadStatus::kOk);
  const Response resp = decode_response(payload, kDefaultMaxFrameBytes);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error.code, kErrBadRequest);

  // An oversized frame declaration is unrecoverable: connection dropped...
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(raw.fd(), huge, 4, 0), 4);
  EXPECT_EQ(read_frame(raw.fd(), payload, kDefaultMaxFrameBytes),
            ReadStatus::kClosed);

  // ...while other connections are untouched.
  const SolveReply r = good.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  server.stop();
}

// The tier-1 smoke test from the issue: N concurrent clients hammer one
// session with pipelined solves; every response must be bit-identical to a
// direct CoolingSystem::evaluate call on the same configuration.
TEST(ServeServer, ConcurrentClientsBitIdenticalToDirectCalls) {
  ServerOptions opts;
  opts.max_batch_size = 16;
  Server server(opts);
  server.start();

  Client admin = Client::connect(server.port());
  const BindReply chip = admin.bind(susan_bind());

  // The direct reference: same floorplan, workload, leakage, and grid.
  const floorplan::Floorplan fp = floorplan::make_ev6_floorplan();
  const power::LeakageModel leakage =
      power::characterize_leakage(fp, power::ProcessConfig{});
  core::CoolingSystem::Config cfg;
  cfg.grid_nx = kGrid;
  cfg.grid_ny = kGrid;
  const core::CoolingSystem direct(
      fp,
      workload::peak_power_map(
          workload::profile_for(workload::Benchmark::kSusan), fp),
      leakage, cfg);
  ASSERT_EQ(direct.omega_max(), chip.omega_max);
  ASSERT_EQ(direct.current_max(), chip.current_max);

  // 3x3 sweep; all clients issue the same points so the batcher gets real
  // dedup opportunities while responses stay per-request.
  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      points.emplace_back(chip.omega_max * (0.3 + 0.2 * i),
                          chip.current_max * (0.1 + 0.15 * j));
    }
  }

  constexpr std::size_t kClients = 8;
  std::vector<std::map<std::uint64_t, std::pair<double, double>>> issued(
      kClients);
  std::vector<std::map<std::uint64_t, SolveReply>> received(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect(server.port());
      for (const auto& [omega, current] : points) {
        issued[c][client.send_solve(chip.session, omega, current)] = {omega,
                                                                      current};
      }
      for (std::size_t k = 0; k < points.size(); ++k) {
        Response resp = client.recv();
        ASSERT_TRUE(resp.ok) << resp.error.message;
        received[c][resp.id] = parse_solve_reply(resp.result);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(received[c].size(), points.size());
    for (const auto& [id, reply] : received[c]) {
      const auto& [omega, current] = issued[c].at(id);
      const core::Evaluation& ref = direct.evaluate(omega, current);
      EXPECT_EQ(reply.runaway, ref.runaway);
      // Bit-identical, not approximately equal: same engine, same initial
      // guess, %.17g on the wire.
      EXPECT_EQ(reply.max_chip_temperature_k, ref.max_chip_temperature);
      EXPECT_EQ(reply.leakage_w, ref.power.leakage);
      EXPECT_EQ(reply.tec_w, ref.power.tec);
      EXPECT_EQ(reply.fan_w, ref.power.fan);
    }
  }

  // With 8 clients pipelining identical sweeps, batching must have coalesced
  // at least some duplicate points.
  const Server::Counters counters = server.counters();
  EXPECT_GT(counters.batches, 0u);
  EXPECT_GT(counters.dedup_hits, 0u);
  server.stop();
}

TEST(ServeServer, OverloadShedsDeterministically) {
  ServerOptions opts;
  opts.max_batch_size = 1;
  opts.max_queue_depth = 2;
  opts.enable_test_requests = true;
  Server server(opts);
  server.start();

  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  // Occupy the batcher, then wait until it is mid-sleep with an empty queue
  // — from here admission outcomes are fully deterministic. Requiring
  // admitted == 2 (bind + sleep) with the queue drained pins `executing` to
  // the sleep itself, not the tail of the bind.
  const std::uint64_t sleep_id = client.send_sleep(400.0);
  wait_until([&] {
    return server.counters().admitted == 2 && server.queue_depth() == 0 &&
           server.executing();
  });

  // Capacity is 2: first two solves are admitted, the rest shed immediately.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(client.send_solve(chip.session, 0.5 * chip.omega_max, 0.0));
  }
  wait_until([&] { return server.counters().shed == 2; });

  std::size_t ok_solves = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < ids.size() + 1; ++i) {  // + the sleep response
    const Response resp = client.recv();
    if (resp.id == sleep_id) {
      EXPECT_TRUE(resp.ok);
      continue;
    }
    if (resp.ok) {
      ++ok_solves;
    } else {
      ++shed;
      EXPECT_EQ(resp.error.code, kErrOverloaded);
      EXPECT_GT(resp.error.retry_after_ms, 0.0);  // structured backpressure
    }
  }
  EXPECT_EQ(ok_solves, 2u);
  EXPECT_EQ(shed, 2u);

  // Inline requests kept working throughout (ping answered by the reader
  // thread, not the busy batcher) — verified implicitly by recv above and
  // explicitly here.
  client.ping();
  server.stop();
}

TEST(ServeServer, DeadlineExpiresWhileQueued) {
  ServerOptions opts;
  opts.max_batch_size = 1;
  opts.enable_test_requests = true;
  Server server(opts);
  server.start();

  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  const std::uint64_t sleep_id = client.send_sleep(300.0);
  wait_until([&] {
    return server.counters().admitted == 2 && server.queue_depth() == 0 &&
           server.executing();
  });

  // 50 ms deadline behind a 300 ms sleep: must expire, never execute.
  Request doomed;
  doomed.type = RequestType::kSolve;
  doomed.deadline_ms = 50.0;
  doomed.params = SolveParams{chip.session, 0.5 * chip.omega_max, 0.0};
  const std::uint64_t doomed_id = client.send(std::move(doomed));

  const Response sleep_resp = client.recv_for(sleep_id);
  EXPECT_TRUE(sleep_resp.ok);
  const Response resp = client.recv_for(doomed_id);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error.code, kErrDeadlineExceeded);
  EXPECT_EQ(server.counters().deadline_expired, 1u);
  server.stop();
}

// A non-solve queued right behind a solve stays in the admission queue
// while the solve's batch runs, so that wait is queue time. Its batch stage
// (dequeue -> execute) must not absorb the batch's run time.
TEST(ServeServer, NonSolveBehindABatchWaitsInTheQueueNotTheBatch) {
  ServerOptions opts;
  opts.enable_test_requests = true;
  Server server(opts);
  server.start();

  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  // Pin the batcher so the solve and the sleep are both queued when it
  // next pops.
  const std::uint64_t pin_id = client.send_sleep(200.0);
  wait_until([&] {
    return server.counters().admitted == 2 && server.queue_depth() == 0 &&
           server.executing();
  });
  const std::uint64_t solve_id =
      client.send_solve(chip.session, 0.5 * chip.omega_max, 0.0);
  const std::uint64_t sleep_id = client.send_sleep(1.0);
  wait_until([&] { return server.counters().admitted == 4; });

  EXPECT_TRUE(client.recv_for(pin_id).ok);
  const Response solve = client.recv_for(solve_id);
  const Response sleep = client.recv_for(sleep_id);
  ASSERT_TRUE(solve.ok) << solve.error.message;
  ASSERT_TRUE(sleep.ok) << sleep.error.message;
  const TimingInfo ts = timing_of(solve);
  const TimingInfo tz = timing_of(sleep);
  ASSERT_TRUE(ts.present);
  ASSERT_TRUE(tz.present);
  EXPECT_GT(ts.solve_us, 0.0);
  EXPECT_LT(tz.batch_us, 0.5 * ts.solve_us);
  for (const TimingInfo& t : {ts, tz}) {
    EXPECT_LE(t.queue_us + t.batch_us + t.solve_us,
              t.total_us * (1.0 + 1e-9) + 1e-3);
  }
  server.stop();
}

TEST(ServeServer, StopDrainsAdmittedWork) {
  ServerOptions opts;
  opts.max_batch_size = 1;
  opts.enable_test_requests = true;
  Server server(opts);
  server.start();

  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  (void)client.send_sleep(200.0);
  wait_until([&] {
    return server.counters().admitted == 2 && server.queue_depth() == 0 &&
           server.executing();
  });
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(
        client.send_solve(chip.session, (0.3 + 0.1 * i) * chip.omega_max, 0.0));
  }
  // bind + sleep + 3 solves admitted; stop() must complete all of them.
  wait_until([&] { return server.counters().admitted >= 5; });

  server.stop();  // blocks until drained, flushed, joined

  std::size_t ok = 0;
  for (std::size_t i = 0; i < ids.size() + 1; ++i) {
    const Response resp = client.recv();
    if (resp.ok) ++ok;
  }
  EXPECT_EQ(ok, ids.size() + 1);  // every admitted request was answered
  const Server::Counters counters = server.counters();
  EXPECT_EQ(counters.completed, counters.admitted);
  EXPECT_FALSE(server.running());
}

// A client that stops reading its replies and then dies must never wedge the
// server. Before the writer learned to close-and-drain `outbound` on write
// failure, the stranded replies of a crashed connection could leave the
// batcher (or a reader pushing an inline reply) blocked forever in a send()
// against a queue nobody would ever pop again, deadlocking stop().
TEST(ServeServer, CrashedClientWithResponseBacklogDoesNotWedgeServer) {
  ServerOptions opts;
  opts.max_batch_size = 8;
  opts.max_queue_depth = 32;  // doomed connection's outbound capacity: 96
  opts.enable_test_requests = true;
  Server server(opts);
  server.start();

  Client admin = Client::connect(server.port());
  const BindReply chip = admin.bind(susan_bind());

  // The doomed connection: tiny kernel buffers so the reply path saturates
  // quickly, and it never reads a single reply.
  Socket dead = Socket::connect_loopback(server.port());
  ASSERT_TRUE(dead.valid());
  constexpr int kTinyBuf = 4096;
  (void)::setsockopt(dead.fd(), SOL_SOCKET, SO_RCVBUF, &kTinyBuf,
                     sizeof kTinyBuf);

  std::uint64_t next_id = 1;
  const auto frame = [&](RequestType type, double sleep_ms = 0.0) {
    Request req;
    req.id = next_id++;
    req.type = type;
    if (type == RequestType::kSolve) {
      req.params = SolveParams{chip.session, 0.5 * chip.omega_max, 0.0};
    } else if (type == RequestType::kSleep) {
      SleepParams p;
      p.ms = sleep_ms;
      req.params = p;
    }
    const std::string payload = encode_request(req);
    std::string framed;
    framed.push_back(static_cast<char>((payload.size() >> 24) & 0xff));
    framed.push_back(static_cast<char>((payload.size() >> 16) & 0xff));
    framed.push_back(static_cast<char>((payload.size() >> 8) & 0xff));
    framed.push_back(static_cast<char>(payload.size() & 0xff));
    framed += payload;
    return framed;
  };
  const auto send_all = [&](const std::string& bytes) {
    ASSERT_EQ(::send(dead.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  };

  // Park the batcher in a sleep, then admit a queue's worth of solves whose
  // replies will all target the doomed connection once the sleep ends.
  send_all(frame(RequestType::kSleep, 400.0));
  wait_until([&] { return server.executing(); });
  for (std::size_t i = 0; i < opts.max_queue_depth; ++i) {
    send_all(frame(RequestType::kSolve));
  }

  // Pump inline replies without ever reading until the reply path saturates
  // end to end: our buffers full -> writer blocked mid-write -> outbound
  // full -> reader blocked in push -> our sends stall persistently. Each
  // unknown-type request echoes its 32 KiB type name back in the error
  // reply, so the 96-slot outbound queue plus every kernel buffer in the
  // path (autotuned up to a few MB each) overflows well before the
  // 2000-frame (~64 MiB) cap.
  const std::string big_error_payload =
      R"({"v":1,"id":7,"type":")" + std::string(32 * 1024, 'x') + R"("})";
  std::string big_error;
  big_error.push_back(
      static_cast<char>((big_error_payload.size() >> 24) & 0xff));
  big_error.push_back(
      static_cast<char>((big_error_payload.size() >> 16) & 0xff));
  big_error.push_back(
      static_cast<char>((big_error_payload.size() >> 8) & 0xff));
  big_error.push_back(static_cast<char>(big_error_payload.size() & 0xff));
  big_error += big_error_payload;
  std::size_t frames_sent = 0;
  std::size_t frame_offset = 0;
  std::uint64_t last_requests = server.counters().requests;
  auto last_progress = std::chrono::steady_clock::now();
  while (frames_sent < 600) {
    const ssize_t n =
        ::send(dead.fd(), big_error.data() + frame_offset,
               big_error.size() - frame_offset, MSG_DONTWAIT | MSG_NOSIGNAL);
    const std::uint64_t requests = server.counters().requests;
    if (n > 0 || requests != last_requests) {
      if (n > 0) {
        frame_offset += static_cast<std::size_t>(n);
        if (frame_offset == big_error.size()) {
          frame_offset = 0;
          ++frames_sent;
        }
      }
      last_requests = requests;
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    // No bytes accepted AND the reader decoded nothing new: if that holds
    // for half a second the pipeline is hard-wedged end to end (writer
    // blocked in send, outbound full, reader blocked in push) rather than
    // merely slow.
    if (std::chrono::steady_clock::now() - last_progress > 500ms) break;
    std::this_thread::sleep_for(5ms);
  }

  // The client "crashes": closing with unread data in the receive buffer
  // sends RST, so the server's next write to this connection fails.
  dead.close();

  // Every admitted request still completes — undeliverable replies are
  // discarded, not stranded behind a blocking push.
  wait_until(
      [&] {
        const Server::Counters c = server.counters();
        return c.completed >= c.admitted && server.queue_depth() == 0 &&
               !server.executing();
      },
      15000ms);

  // The healthy client is unaffected, and shutdown drains without deadlock.
  const SolveReply r = admin.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  server.stop();
  EXPECT_FALSE(server.running());
}

// A peer that resets the connection mid-reply must cost the server nothing
// beyond that one connection. Writing into an RST'd socket raises SIGPIPE —
// default action: kill the whole process — unless every send passes
// MSG_NOSIGNAL and the socket layer has opted the process out as a
// belt-and-braces default. This test pipelines solves on raw sockets and
// slams each shut with an immediate RST while replies are in flight.
TEST(ServeServer, PeerResetMidReplyDoesNotRaiseSigpipe) {
  Server server;
  server.start();
  Client admin = Client::connect(server.port());
  const BindReply chip = admin.bind(susan_bind());

  for (int round = 0; round < 3; ++round) {
    Socket doomed = Socket::connect_loopback(server.port());
    ASSERT_TRUE(doomed.valid());
    for (int i = 0; i < 8; ++i) {
      Request req;
      req.id = static_cast<std::uint64_t>(i + 1);
      req.type = RequestType::kSolve;
      req.params = SolveParams{chip.session, 0.5 * chip.omega_max, 0.0};
      ASSERT_TRUE(write_frame(doomed.fd(), encode_request(req)));
    }
    // SO_LINGER with a zero timeout turns close() into an immediate RST,
    // so the server's queued replies race against a dead connection.
    struct linger hard_reset = {};
    hard_reset.l_onoff = 1;
    hard_reset.l_linger = 0;
    ASSERT_EQ(::setsockopt(doomed.fd(), SOL_SOCKET, SO_LINGER, &hard_reset,
                           sizeof hard_reset),
              0);
    doomed.close();
  }

  // The socket layer opted the process out of SIGPIPE when the first
  // socket came up; the resets must not have re-armed it.
  struct sigaction current = {};
  ASSERT_EQ(::sigaction(SIGPIPE, nullptr, &current), 0);
  EXPECT_EQ(current.sa_handler, SIG_IGN);

  // Every admitted solve still completes (replies to the dead peers are
  // discarded), the process is obviously still alive, and a healthy client
  // sees an untouched server.
  wait_until([&] {
    const Server::Counters c = server.counters();
    return c.completed >= c.admitted && server.queue_depth() == 0;
  });
  const SolveReply r = admin.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_FALSE(r.runaway);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServeServer, StatsReportEngineCounters) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  BindParams bind = susan_bind();
  bind.direct_solve = true;  // exercise the factor-cache path
  const BindReply chip = client.bind(bind);

  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);

  const util::json::Value stats = client.stats(chip.session);
  const util::json::Value* srv = stats.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_GE(srv->find("requests")->as_number(), 3.0);
  const util::json::Value* session = stats.find("session");
  ASSERT_NE(session, nullptr);
  const util::json::Value* engine = session->find("engine");
  ASSERT_NE(engine, nullptr);
  // The repeated point either hit the evaluation memo or the factor cache;
  // points were definitely evaluated.
  EXPECT_GE(engine->find("points")->as_number(), 1.0);
  server.stop();
}

TEST(ServeServer, TransientStateAdvancesPerSession) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  TransientParams step;
  step.session = chip.session;
  step.omega = 0.5 * chip.omega_max;
  step.current = 0.0;
  step.duration_s = 0.02;
  step.time_step_s = 1e-3;
  step.reset = true;
  const TransientReply first = client.transient(step);
  EXPECT_FALSE(first.runaway);
  EXPECT_EQ(first.steps, 20u);
  EXPECT_DOUBLE_EQ(first.time_s, 0.02);

  step.reset = false;
  const TransientReply second = client.transient(step);
  EXPECT_DOUBLE_EQ(second.time_s, 0.04);
  // Heating toward steady state: the chip keeps warming monotonically.
  EXPECT_GE(second.final_max_chip_temperature_k,
            first.final_max_chip_temperature_k);
  server.stop();
}

}  // namespace
}  // namespace oftec::serve
