// Tier-1 loopback tests for the serve observability surface (PR 7): the
// per-response timing block, trace-context round-trips, kStats snapshot and
// delta-cursor views, slow-request exemplars via kTrace, and — the hard
// constraint — solve results bit-identical with observability on and off.
#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/obs.h"

namespace oftec::serve {
namespace {

constexpr std::size_t kGrid = 8;

BindParams susan_bind() {
  BindParams params;
  params.benchmark = "susan";
  params.grid_nx = kGrid;
  params.grid_ny = kGrid;
  return params;
}

/// obs state is process-global and this binary shares it across suites:
/// every test starts and ends with collection off, metrics zeroed, and
/// exemplar capture disabled.
class ServeTimingTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce(); }
  void TearDown() override { quiesce(); }
  static void quiesce() {
    obs::set_enabled(false);
    obs::set_slow_request_threshold_us(0);
    obs::set_trace_sample_every(0);
    obs::clear_exemplars();
    obs::reset();
  }
};

TEST_F(ServeTimingTest, TimingBlockPresentAndStagesSumWithinTotal) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  double min_batch_us = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 4; ++i) {
    (void)client.solve(chip.session, (0.3 + 0.1 * i) * chip.omega_max, 0.0);
    const TimingInfo t = client.last_timing();
    ASSERT_TRUE(t.present) << "every solve response must carry timing";
    min_batch_us = std::min(min_batch_us, t.batch_us);
    EXPECT_GE(t.decode_us, 0.0);
    EXPECT_GE(t.queue_us, 0.0);
    EXPECT_GE(t.batch_us, 0.0);
    EXPECT_GT(t.solve_us, 0.0);
    EXPECT_GT(t.total_us, 0.0);
    // The stages are disjoint intervals of the request's life, so their sum
    // can never exceed the end-to-end time (tiny slack for double rounding
    // in the µs conversions).
    EXPECT_LE(t.queue_us + t.batch_us + t.solve_us,
              t.total_us * (1.0 + 1e-9) + 1e-3);
  }
  // A lone solve on an idle server has no batchmate to wait for: the
  // batcher runs it at once instead of holding it for more work. The
  // minimum over four solves keeps one descheduled batcher from failing
  // the check.
  EXPECT_LT(min_batch_us, 1000.0);
  server.stop();
}

TEST_F(ServeTimingTest, TraceIdRoundTripsOnQueuedAndInlineRequests) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  client.set_next_trace_id("rt-solve-1");
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_EQ(client.last_trace_id(), "rt-solve-1");

  client.set_next_trace_id("rt-ping-1");
  client.ping();  // inline path (reader thread) echoes the id too
  EXPECT_EQ(client.last_trace_id(), "rt-ping-1");

  // No id set: the server echoes nothing.
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  EXPECT_TRUE(client.last_trace_id().empty());
  server.stop();
}

TEST_F(ServeTimingTest, StatsSnapshotAndDeltaCarryStageHistograms) {
  obs::set_enabled(true);
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  for (int i = 0; i < 3; ++i) {
    (void)client.solve(chip.session, (0.3 + 0.1 * i) * chip.omega_max, 0.0);
  }

  const char* kStageHists[] = {"serve.queue_wait_us", "serve.batch_wait_us",
                               "serve.solve_us", "serve.write_us"};

  // First scrape: full snapshot, fresh cursor.
  StatsParams params;
  params.session = chip.session;
  const util::json::Value first = client.stats(params);
  ASSERT_NE(first.find("cursor"), nullptr);
  EXPECT_FALSE(first.find("delta")->as_bool());
  const util::json::Value* obs1 = first.find("obs");
  ASSERT_NE(obs1, nullptr);
  const util::json::Value* hists1 = obs1->find("histograms");
  ASSERT_NE(hists1, nullptr);
  for (const char* name : kStageHists) {
    const util::json::Value* h = hists1->find(name);
    ASSERT_NE(h, nullptr) << "missing stage histogram " << name;
    EXPECT_GE(h->find("count")->as_number(), 3.0) << name;
  }
  // Per-session request counters ride along in the session block.
  const util::json::Value* session = first.find("session");
  ASSERT_NE(session, nullptr);
  const util::json::Value* reqs = session->find("requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_GE(reqs->find("solve")->as_number(), 3.0);

  const auto cursor =
      static_cast<std::uint64_t>(first.find("cursor")->as_number());
  ASSERT_GT(cursor, 0u);

  // Two more solves, then a delta scrape: only the increment shows up.
  (void)client.solve(chip.session, 0.45 * chip.omega_max, 0.0);
  (void)client.solve(chip.session, 0.55 * chip.omega_max, 0.0);
  StatsParams delta_params;
  delta_params.view = "delta";
  delta_params.cursor = cursor;
  const util::json::Value second = client.stats(delta_params);
  EXPECT_TRUE(second.find("delta")->as_bool());
  const util::json::Value* h2 =
      second.find("obs")->find("histograms")->find("serve.solve_us");
  ASSERT_NE(h2, nullptr);
  EXPECT_DOUBLE_EQ(h2->find("count")->as_number(), 2.0);

  // An unknown cursor degrades to a full snapshot (delta:false), it never
  // errors — the scraper re-baselines on the fresh cursor it got back.
  StatsParams bogus;
  bogus.view = "delta";
  bogus.cursor = 999999;
  EXPECT_FALSE(client.stats(bogus).find("delta")->as_bool());

  // A reset between scrapes changes the epoch: the old cursor must degrade
  // to a full snapshot instead of producing a nonsense subtraction.
  const auto cursor2 =
      static_cast<std::uint64_t>(second.find("cursor")->as_number());
  obs::reset();
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);
  StatsParams stale;
  stale.view = "delta";
  stale.cursor = cursor2;
  const util::json::Value after_reset = client.stats(stale);
  EXPECT_FALSE(after_reset.find("delta")->as_bool());
  server.stop();
}

TEST_F(ServeTimingTest, PrometheusFormatRendersStageFamilies) {
  obs::set_enabled(true);
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);

  StatsParams params;
  params.format = "prometheus";
  const util::json::Value result = client.stats(params);
  EXPECT_EQ(result.find("format")->as_string(), "prometheus");
  EXPECT_EQ(result.find("content_type")->as_string(),
            "text/plain; version=0.0.4");
  const std::string text = result.find("text")->as_string();
  EXPECT_NE(text.find("# TYPE serve_solve_us histogram"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_wait_us_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("serve_solve_us_quantile{q=\"0.5\"}"),
            std::string::npos);
  server.stop();
}

TEST_F(ServeTimingTest, SlowRequestExemplarRetrievableViaTraceRpc) {
  obs::set_enabled(true);
  obs::set_slow_request_threshold_us(1);  // every request counts as slow
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  client.set_next_trace_id("exemplar-hunt-1");
  (void)client.solve(chip.session, 0.5 * chip.omega_max, 0.0);

  TraceParams params;
  params.trace_id = "exemplar-hunt-1";
  const util::json::Value result = client.trace(params);
  ASSERT_GE(result.find("count")->as_number(), 1.0);
  const util::json::Value* ring = result.find("ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_GE(ring->find("captured")->as_number(), 1.0);

  // The payload is a loadable Chrome trace with the request's stage slices.
  const util::json::Value* trace = result.find("trace");
  ASSERT_NE(trace, nullptr);
  const util::json::Value* events = trace->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  bool saw_solve_stage = false;
  for (const util::json::Value& ev : events->as_array()) {
    if (ev.find("ph")->as_string() != "X") continue;
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    saw_solve_stage |= ev.find("name")->as_string() == "solve";
  }
  EXPECT_TRUE(saw_solve_stage);
  server.stop();
}

TEST_F(ServeTimingTest, V1PeerOmittingNewFieldsInteroperates) {
  Server server;
  server.start();

  // A pre-PR-7 peer: bare v1 envelope, no trace fields, and it would ignore
  // the (unknown to it) timing/trace_id keys on the response. The server
  // must answer normally.
  Socket raw = Socket::connect_loopback(server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(write_frame(raw.fd(), R"({"v":1,"id":9,"type":"ping"})"));
  std::string payload;
  ASSERT_EQ(read_frame(raw.fd(), payload, kDefaultMaxFrameBytes),
            ReadStatus::kOk);
  const Response resp = decode_response(payload, kDefaultMaxFrameBytes);
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.id, 9u);
  // No trace context in → none echoed out (the key is absent entirely, so
  // strict old-schema parsers never see it).
  EXPECT_EQ(payload.find("trace_id"), std::string::npos);
  server.stop();
}

TEST_F(ServeTimingTest, SolveResultsBitIdenticalWithObservabilityOnAndOff) {
  Server server;
  server.start();
  Client client = Client::connect(server.port());
  const BindReply chip = client.bind(susan_bind());

  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 5; ++i) {
    points.emplace_back((0.3 + 0.1 * i) * chip.omega_max,
                        0.1 * chip.current_max);
  }

  // Dark mode: collection off, no exemplar capture.
  std::vector<SolveReply> dark;
  for (const auto& [omega, current] : points) {
    dark.push_back(client.solve(chip.session, omega, current));
  }

  // Full observability: metrics on, every request exemplar-captured.
  obs::set_enabled(true);
  obs::set_slow_request_threshold_us(1);
  obs::set_trace_sample_every(1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SolveReply lit =
        client.solve(chip.session, points[i].first, points[i].second);
    EXPECT_EQ(lit.runaway, dark[i].runaway);
    EXPECT_EQ(lit.max_chip_temperature_k, dark[i].max_chip_temperature_k);
    EXPECT_EQ(lit.leakage_w, dark[i].leakage_w);
    EXPECT_EQ(lit.tec_w, dark[i].tec_w);
    EXPECT_EQ(lit.fan_w, dark[i].fan_w);
  }
  EXPECT_GE(obs::exemplar_ring_stats().captured, points.size());
  server.stop();
}

}  // namespace
}  // namespace oftec::serve
