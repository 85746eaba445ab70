// CI smoke for the serve observability surface (ctest `obs_smoke_serve`,
// tier1, driven by tools/run_serve_obs_smoke.cmake). One process plays both
// sides of a loopback deployment and checks the acceptance criteria end to
// end:
//
//   1. Every solve response carries a timing block whose disjoint stages sum
//      to no more than the end-to-end time.
//   2. Solve results are bit-identical with observability fully on (metrics +
//      every-request exemplar capture) and fully off.
//   3. kStats serves a full snapshot and then a delta-since-cursor view, both
//      containing the four stage histograms; the Prometheus rendering is
//      written to argv[1] for structural validation by obs_schema_check.
//   4. A deliberately slow request (server-side sleep beyond the slow-request
//      threshold) is captured as an exemplar and retrieved by trace id via
//      kTrace; the Chrome trace JSON is written to argv[2].
//
// usage: serve_obs_smoke <prom_out.txt> <trace_out.json>
// Exit 0 on success; 1 with a message on the first failed check.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/resilient_client.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/obs.h"

namespace {

using namespace oftec;
using namespace oftec::serve;

#define CHECK(cond, what)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "serve_obs_smoke: FAIL: %s (%s:%d)\n", what, \
                   __FILE__, __LINE__);                                \
      return 1;                                                        \
    }                                                                  \
  } while (0)

BindParams susan_bind() {
  BindParams params;
  params.benchmark = "susan";
  params.grid_nx = 8;
  params.grid_ny = 8;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: serve_obs_smoke <prom_out.txt> <trace_out.json>\n");
    return 2;
  }

  ServerOptions opts;
  opts.enable_test_requests = true;  // the sleep request plays "slow RPC"
  Server server(opts);
  server.start();

  // Start dark: collection off, no exemplar capture.
  obs::set_enabled(false);
  obs::set_slow_request_threshold_us(0);
  obs::set_trace_sample_every(0);
  obs::clear_exemplars();
  obs::reset();

  ResilientClient::Options copts;
  copts.trace = true;  // generate a trace id per RPC
  copts.trace_prefix = "smoke";
  ResilientClient client(server.port(), copts);
  const BindReply chip = client.bind(susan_bind());

  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 5; ++i) {
    points.emplace_back((0.3 + 0.1 * i) * chip.omega_max,
                        0.1 * chip.current_max);
  }

  // --- 1 & 2: dark baseline, timing on every response ----------------------
  std::vector<SolveReply> dark;
  for (const auto& [omega, current] : points) {
    dark.push_back(client.solve(omega, current));
    const TimingInfo t = client.last_timing();
    CHECK(t.present, "solve response missing timing block");
    CHECK(t.total_us > 0.0, "timing total_us not positive");
    CHECK(t.queue_us + t.batch_us + t.solve_us <=
              t.total_us * (1.0 + 1e-9) + 1e-3,
          "timing stages exceed end-to-end time");
    CHECK(!client.last_trace_id().empty(), "generated trace id not echoed");
  }

  // Full observability on: metrics plus every-request exemplar capture.
  obs::set_enabled(true);
  obs::set_slow_request_threshold_us(1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SolveReply lit = client.solve(points[i].first, points[i].second);
    CHECK(lit.runaway == dark[i].runaway &&
              lit.max_chip_temperature_k == dark[i].max_chip_temperature_k &&
              lit.leakage_w == dark[i].leakage_w &&
              lit.tec_w == dark[i].tec_w && lit.fan_w == dark[i].fan_w,
          "solve result differs with observability enabled");
  }

  // --- 3: kStats snapshot, then delta-since-cursor --------------------------
  const char* kStageHists[] = {"serve.queue_wait_us", "serve.batch_wait_us",
                               "serve.solve_us", "serve.write_us"};
  // The connection's writer observes serve.write_us once a frame is on the
  // wire, so the last reply's write can trail the client's receipt of it.
  // A ping round trip through the same writer orders the scrape after it.
  client.ping();
  const util::json::Value snap = client.raw_stats(StatsParams{});
  CHECK(snap.find("cursor") != nullptr, "stats snapshot missing cursor");
  CHECK(!snap.find("delta")->as_bool(), "first scrape claimed to be a delta");
  for (const char* name : kStageHists) {
    const util::json::Value* h = snap.find("obs")->find("histograms")->find(name);
    CHECK(h != nullptr, "stage histogram missing from snapshot");
    CHECK(h->find("count")->as_number() >= 5.0,
          "stage histogram missed the solves");
  }

  (void)client.solve(points[0].first, points[0].second);
  (void)client.solve(points[1].first, points[1].second);
  StatsParams delta_params;
  delta_params.view = "delta";
  delta_params.cursor =
      static_cast<std::uint64_t>(snap.find("cursor")->as_number());
  const util::json::Value delta = client.raw_stats(delta_params);
  CHECK(delta.find("delta")->as_bool(), "cursor scrape was not a delta");
  const util::json::Value* dh =
      delta.find("obs")->find("histograms")->find("serve.solve_us");
  CHECK(dh != nullptr && dh->find("count")->as_number() == 2.0,
        "delta view did not isolate the two new solves");

  StatsParams prom_params;
  prom_params.format = "prometheus";
  const util::json::Value prom = client.raw_stats(prom_params);
  const std::string text = prom.find("text")->as_string();
  CHECK(text.find("serve_solve_us_bucket{le=") != std::string::npos,
        "prometheus exposition lacks stage buckets");
  {
    std::ofstream out(argv[1]);
    CHECK(static_cast<bool>(out), "cannot write prometheus artifact");
    out << text;
  }

  // --- 4: slow request captured and retrieved by trace id -------------------
  obs::set_slow_request_threshold_us(5000);  // only genuinely slow requests
  {
    Request req;
    req.type = RequestType::kSleep;
    req.params = SleepParams{20.0};  // 20 ms >> 5 ms threshold
    Client direct = Client::connect(server.port());
    direct.set_next_trace_id("smoke-slow-1");
    const std::uint64_t id = direct.send(std::move(req));
    const Response resp = direct.recv_for(id);
    CHECK(resp.ok, "slow request failed");
    CHECK(timing_of(resp).total_us >= 5000.0, "sleep was not actually slow");
  }

  TraceParams trace_params;
  trace_params.trace_id = "smoke-slow-1";
  const util::json::Value trace = client.raw_trace(trace_params);
  CHECK(trace.find("count")->as_number() >= 1.0,
        "slow request not found in exemplar ring");
  const util::json::Value* events = trace.find("trace")->find("traceEvents");
  CHECK(events != nullptr && events->is_array() && !events->as_array().empty(),
        "kTrace returned no trace events");
  {
    std::ofstream out(argv[2]);
    CHECK(static_cast<bool>(out), "cannot write trace artifact");
    out << trace.find("trace")->dump();
  }

  obs::set_enabled(false);
  obs::set_slow_request_threshold_us(0);
  obs::clear_exemplars();
  server.stop();
  std::printf("serve_obs_smoke: OK (%zu solves, artifacts written)\n",
              2 * points.size() + 2);
  return 0;
}
