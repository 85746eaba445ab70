// serve_mix — an open-loop request mix into a 2-worker in-process
// cluster::Cluster: the only workload through `serve` (decode, admission
// queue, micro-batcher, writer) and the `cluster` router hop.
//
// Set-up starts the cluster and binds eight 10×10 sessions with explicit
// seeded power maps; half use direct_solve and session 0 trains a LUT. One
// generator connection (a sender and a receiver thread) sends seeded
// arrivals at a fixed rate: ≈85 % solve (mostly repeats from a 3×3
// per-session grid, so the direct sessions' factor caches hit; the rest
// fresh points), ≈10 % lut, ≈5 % short transient with reset (so every reply
// is a pure function of its request). Light solves queue behind the heavier
// transients. Latency runs from each request's scheduled send time. Every ok
// reply must be bit-identical to the direct library call, computed before
// the timed phase.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "cluster/cluster.h"
#include "common.h"
#include "core/cooling_system.h"
#include "core/lut_controller.h"
#include "floorplan/ev6.h"
#include "power/mcpat_like.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/wire.h"
#include "thermal/transient_engine.h"
#include "util/obs.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace perfbench {

namespace core = oftec::core;
namespace serve = oftec::serve;
namespace thermal = oftec::thermal;
namespace workload = oftec::workload;
namespace json = oftec::util::json;

namespace {

constexpr std::size_t kSessions = 8;
constexpr std::size_t kWorkers = 2;
/// Offered load [requests/s]: about 40 % of the mix's capacity through this
/// 2-worker cluster on one connection, which saturated at 110–136 requests/s
/// on a 4-vCPU Xeon (see perfbench/README.md).
constexpr double kRate = 45.0;
constexpr double kSolveShare = 0.85;
constexpr double kLutShare = 0.10;  // the rest are transients
constexpr double kFreshShare = 0.2;  // of solves: points off the grid
constexpr std::size_t kLutQueries = 16;
constexpr double kTransientDuration = 5e-3;  // five 1-ms steps
constexpr double kTransientStep = 1e-3;
constexpr long kRecvTimeoutMs = 30000;

enum class Kind { kSolve, kLut, kTransient };

struct Planned {
  Kind kind = Kind::kSolve;
  std::size_t session = 0;  ///< index into the bound sessions
  double omega = 0.0;
  double current = 0.0;
  std::size_t lut_query = 0;
  double at_s = 0.0;  ///< scheduled send, from the phase start
};

/// What the direct library call answers for one planned request.
struct Expected {
  serve::SolveReply solve;
  core::LutController::LookupResult lut;
  serve::TransientReply transient;
};

/// The direct library stack the served answers are checked against: the
/// same floorplan, leakage, power maps and configs the sessions bind.
struct Reference {
  oftec::floorplan::Floorplan fp = oftec::floorplan::make_ev6_floorplan();
  oftec::power::LeakageModel leakage =
      oftec::power::characterize_leakage(fp, oftec::power::ProcessConfig{});
  std::vector<serve::BindParams> binds;
  std::vector<std::unique_ptr<core::CoolingSystem>> systems;
  std::vector<std::unique_ptr<thermal::TransientEngine>> transients;
  std::unique_ptr<core::LutController> lut;
  std::vector<std::vector<thermal::OperatingPoint>> grids;
  std::vector<std::vector<double>> lut_queries;
};

core::CoolingSystem::Config config_of(const serve::BindParams& b) {
  core::CoolingSystem::Config cfg;
  cfg.grid_nx = b.grid_nx;
  cfg.grid_ny = b.grid_ny;
  cfg.engine.use_iterative = !b.direct_solve;
  return cfg;
}

oftec::power::PowerMap map_of(const oftec::floorplan::Floorplan& fp,
                              const std::vector<double>& watts) {
  oftec::power::PowerMap map(fp);
  for (std::size_t i = 0; i < watts.size(); ++i) map.set(i, watts[i]);
  return map;
}

/// Seeded session specs: session k carries MiBench profile k's peak map
/// with every block scaled by its own factor in [0.9, 1]; odd sessions solve
/// direct; session 0 trains a LUT on all eight profiles.
std::vector<serve::BindParams> make_binds(const oftec::floorplan::Floorplan& fp,
                                          oftec::util::Rng& rng) {
  std::vector<serve::BindParams> binds;
  std::vector<std::string> names;
  for (const workload::Benchmark b : workload::all_benchmarks()) {
    names.push_back(workload::benchmark_name(b));
  }
  for (std::size_t k = 0; k < kSessions; ++k) {
    const workload::Benchmark b = workload::all_benchmarks()[k];
    const oftec::power::PowerMap peak =
        workload::peak_power_map(workload::profile_for(b), fp);
    serve::BindParams p;
    for (const double w : peak.values()) {
      p.power_w.push_back(w * rng.uniform(0.9, 1.0));
    }
    p.direct_solve = k % 2 == 1;
    if (k == 0) p.lut_training = names;
    binds.push_back(std::move(p));
  }
  return binds;
}

std::unique_ptr<Reference> make_reference(std::uint64_t seed) {
  auto ref = std::make_unique<Reference>();
  oftec::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E);
  ref->binds = make_binds(ref->fp, rng);
  for (const serve::BindParams& b : ref->binds) {
    ref->systems.push_back(std::make_unique<core::CoolingSystem>(
        ref->fp, map_of(ref->fp, b.power_w), ref->leakage, config_of(b)));
    const core::CoolingSystem& sys = *ref->systems.back();
    std::vector<thermal::OperatingPoint> grid;
    for (const double w : {0.55, 0.7, 0.85}) {
      for (const double i : {0.25, 0.45, 0.65}) {
        grid.push_back({w * sys.omega_max(), i * sys.current_max()});
      }
    }
    ref->grids.push_back(std::move(grid));
    ref->transients.emplace_back();
  }
  std::vector<oftec::power::PowerMap> training;
  for (const std::string& name : ref->binds[0].lut_training) {
    training.push_back(workload::peak_power_map(
        workload::profile_for(*workload::benchmark_by_name(name)), ref->fp));
  }
  ref->lut = std::make_unique<core::LutController>(core::LutController::build(
      training, ref->fp, ref->leakage, config_of(ref->binds[0])));
  for (std::size_t q = 0; q < kLutQueries; ++q) {
    const oftec::power::PowerMap peak = workload::peak_power_map(
        workload::profile_for(workload::all_benchmarks()[q % 8]), ref->fp);
    std::vector<double> query;
    for (const double w : peak.values()) query.push_back(w * rng.uniform(0.8, 1.0));
    ref->lut_queries.push_back(std::move(query));
  }
  return ref;
}

/// Seeded open-loop schedule: `count` arrivals spread uniformly at random
/// over `seconds` (a Poisson process conditioned on its count). The mix is
/// a shuffled deck with exact shares, and each kind deals its requests to
/// the sessions in turn, so every seed offers the same load and only the
/// order, timing and points differ.
std::vector<Planned> make_plan(const Reference& ref, double seconds,
                               std::uint64_t seed) {
  oftec::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x91);
  const auto count = static_cast<std::size_t>(std::llround(kRate * seconds));
  const auto luts = static_cast<std::size_t>(std::llround(count * kLutShare));
  const auto transients = static_cast<std::size_t>(
      std::llround(count * (1.0 - kSolveShare - kLutShare)));
  const std::size_t solves = count - luts - transients;
  const auto fresh = static_cast<std::size_t>(std::llround(solves * kFreshShare));

  struct Card {
    Kind kind;
    bool fresh;
  };
  std::vector<Card> deck;
  for (std::size_t i = 0; i < solves; ++i) deck.push_back({Kind::kSolve, i < fresh});
  for (std::size_t i = 0; i < luts; ++i) deck.push_back({Kind::kLut, false});
  for (std::size_t i = 0; i < transients; ++i) {
    deck.push_back({Kind::kTransient, false});
  }
  for (std::size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.uniform_index(i)]);
  }

  std::vector<double> at(count);
  for (double& t : at) t = rng.uniform() * seconds;
  std::sort(at.begin(), at.end());
  // Solves go two to one to the iterative (even) sessions — the library's
  // default solve path; the direct sessions are there for the factor cache.
  constexpr std::size_t kSolveTurns[] = {0, 2, 4, 6, 1, 3,
                                         0, 2, 4, 6, 5, 7};
  std::vector<Planned> plan(count);
  std::size_t dealt[3] = {0, 0, 0};
  for (std::size_t r = 0; r < count; ++r) {
    Planned& p = plan[r];
    p.at_s = at[r];
    p.kind = deck[r].kind;
    const std::size_t turn = dealt[static_cast<int>(p.kind)]++;
    p.session = p.kind == Kind::kSolve
                    ? kSolveTurns[turn % std::size(kSolveTurns)]
                    : turn % kSessions;
    const auto& grid = ref.grids[p.session];
    const thermal::OperatingPoint g = grid[rng.uniform_index(grid.size())];
    p.omega = g.omega;
    p.current = g.current;
    if (p.kind == Kind::kSolve && deck[r].fresh) {
      const core::CoolingSystem& sys = *ref.systems[p.session];
      p.omega = rng.uniform(0.5, 0.9) * sys.omega_max();
      p.current = rng.uniform(0.2, 0.7) * sys.current_max();
    } else if (p.kind == Kind::kLut) {
      p.session = 0;  // the session with a LUT
      p.lut_query = rng.uniform_index(kLutQueries);
    }
  }
  return plan;
}

serve::TransientParams transient_params(std::uint64_t session,
                                        const Planned& p) {
  serve::TransientParams t;
  t.session = session;
  t.omega = p.omega;
  t.current = p.current;
  t.duration_s = kTransientDuration;
  t.time_step_s = kTransientStep;
  t.reset = true;
  return t;
}

/// The direct library answer, replicating what a session computes.
Expected expect(Reference& ref, const Planned& p) {
  Expected e;
  const core::CoolingSystem& sys = *ref.systems[p.session];
  switch (p.kind) {
    case Kind::kSolve: {
      const core::Evaluation& ev = sys.evaluate(p.omega, p.current);
      e.solve.runaway = ev.runaway;
      e.solve.max_chip_temperature_k = ev.max_chip_temperature;
      e.solve.leakage_w = ev.power.leakage;
      e.solve.tec_w = ev.power.tec;
      e.solve.fan_w = ev.power.fan;
      e.solve.iterations = ev.solver_iterations;
      break;
    }
    case Kind::kLut:
      e.lut = ref.lut->lookup(map_of(ref.fp, ref.lut_queries[p.lut_query]));
      break;
    case Kind::kTransient: {
      auto& engine = ref.transients[p.session];
      if (!engine) {
        engine = std::make_unique<thermal::TransientEngine>(
            sys.thermal_model(), sys.cell_dynamic_power(), sys.cell_leakage());
      }
      thermal::TransientOptions opts;
      opts.time_step = kTransientStep;
      opts.duration = kTransientDuration;
      opts.record_stride = 1;
      const thermal::ControlSetting setting{p.omega, p.current};
      const thermal::TransientResult r = engine->run(
          [setting](double) { return setting; }, engine->ambient_state(), opts);
      e.transient.runaway = r.runaway;
      e.transient.steps = r.steps;
      double peak = 0.0;
      for (const thermal::TransientSample& s : r.samples) {
        peak = std::max(peak, s.max_chip_temperature);
        e.transient.final_max_chip_temperature_k = s.max_chip_temperature;
      }
      e.transient.peak_max_chip_temperature_k = peak;
      e.transient.time_s = kTransientDuration;
      break;
    }
  }
  return e;
}

std::string encode(const Planned& p, std::uint64_t id,
                   const std::vector<std::uint64_t>& session_ids,
                   const Reference& ref) {
  serve::Request req;
  req.id = id;
  const std::uint64_t sid = session_ids[p.session];
  switch (p.kind) {
    case Kind::kSolve:
      req.type = serve::RequestType::kSolve;
      req.params = serve::SolveParams{sid, p.omega, p.current};
      break;
    case Kind::kLut:
      req.type = serve::RequestType::kLut;
      req.params = serve::LutParams{sid, ref.lut_queries[p.lut_query]};
      break;
    case Kind::kTransient:
      req.type = serve::RequestType::kTransient;
      req.params = transient_params(sid, p);
      break;
  }
  return serve::encode_request(req);
}

/// Compare one reply with the library's answer, bit for bit.
bool matches(const Planned& p, const Expected& e, const serve::Response& r) {
  if (!r.ok) return false;
  switch (p.kind) {
    case Kind::kSolve: {
      const serve::SolveReply s = serve::parse_solve_reply(r.result);
      return s.runaway == e.solve.runaway &&
             same_bits(s.max_chip_temperature_k,
                       e.solve.max_chip_temperature_k) &&
             same_bits(s.leakage_w, e.solve.leakage_w) &&
             same_bits(s.tec_w, e.solve.tec_w) &&
             same_bits(s.fan_w, e.solve.fan_w) &&
             s.iterations == e.solve.iterations;
    }
    case Kind::kLut: {
      const serve::LutReply l = serve::parse_lut_reply(r.result);
      return same_bits(l.omega, e.lut.omega) &&
             same_bits(l.current, e.lut.current) &&
             l.feasible == e.lut.feasible &&
             l.entry_index == e.lut.entry_index &&
             same_bits(l.feature_distance, e.lut.feature_distance);
    }
    case Kind::kTransient: {
      const serve::TransientReply t = serve::parse_transient_reply(r.result);
      return t.runaway == e.transient.runaway &&
             same_bits(t.final_max_chip_temperature_k,
                       e.transient.final_max_chip_temperature_k) &&
             same_bits(t.peak_max_chip_temperature_k,
                       e.transient.peak_max_chip_temperature_k) &&
             t.steps == e.transient.steps &&
             same_bits(t.time_s, e.transient.time_s);
    }
  }
  return false;
}

struct Phase {
  Timings latency;                ///< per received reply
  std::vector<double> late_ms;    ///< sender lateness per request
  std::vector<double> cooling_w;  ///< 𝒫 of each ok solve reply
  std::size_t ok = 0;
  double elapsed_s = 0.0;
};

/// Run one open-loop phase over a fresh generator connection and check every
/// reply. Request ids are 1..N in plan order. A sampler thread calibrates
/// the host speed throughout; each latency is scaled by the calibration
/// around its request's due time.
Phase run_phase(std::uint16_t port, const std::vector<Planned>& plan,
                const std::vector<std::string>& payloads,
                const std::vector<Expected>& expected, std::uint64_t first_op,
                Tracer& tracer, Report& report) {
  const std::size_t n = plan.size();
  std::vector<Clock::time_point> sent(n), received(n);
  std::vector<serve::Response> replies(n);
  std::vector<char> got(n, 0);
  const CalibrationSampler calibration(std::chrono::milliseconds(25));
  serve::Socket socket = serve::Socket::connect_loopback(port);
  const int fd = socket.fd();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan[i].at_s));
  };

  std::thread receiver([&] {
    std::string payload;
    for (std::size_t count = 0; count < n; ++count) {
      if (serve::read_frame_for(fd, payload, serve::kDefaultMaxFrameBytes,
                                kRecvTimeoutMs) != serve::ReadStatus::kOk) {
        return;
      }
      const Clock::time_point now = Clock::now();
      try {
        serve::Response r =
            serve::decode_response(payload, serve::kDefaultMaxFrameBytes);
        if (r.id >= 1 && r.id <= n && !got[r.id - 1]) {
          received[r.id - 1] = now;
          got[r.id - 1] = 1;
          replies[r.id - 1] = std::move(r);
        }
      } catch (const std::exception&) {
        // Counted as a missing reply below.
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    // Sleep to within a millisecond of the due time, then spin: a timer
    // wake-up on this host can overshoot by milliseconds.
    std::this_thread::sleep_until(due(i) - std::chrono::milliseconds(1));
    while (Clock::now() < due(i)) {
    }
    sent[i] = Clock::now();
    if (!serve::write_frame(fd, payloads[i])) {
      socket.shutdown_both();  // unblock the receiver
      break;
    }
  }
  receiver.join();

  Phase phase;
  Clock::time_point last = t0;
  for (std::size_t i = 0; i < n; ++i) {
    ++report.attempted;
    phase.late_ms.push_back(ms_between(due(i), sent[i]));
    if (!got[i]) {
      report.fail("serve_mix request " + std::to_string(first_op + i) +
                  ": no reply");
      continue;
    }
    phase.latency.add(
        ms_between(due(i), received[i]),
        calibration.around(due(i), std::chrono::milliseconds(500)));
    last = std::max(last, received[i]);
    tracer.record("serve_mix.request", first_op + i, due(i), received[i]);
    bool ok = false;
    try {
      ok = matches(plan[i], expected[i], replies[i]);
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      report.fail("serve_mix request " + std::to_string(first_op + i) + ": " +
                  (replies[i].ok ? "differs from the direct library call"
                                 : replies[i].error.code));
      continue;
    }
    ++phase.ok;
    if (plan[i].kind == Kind::kSolve) {
      const serve::SolveReply& s = expected[i].solve;
      phase.cooling_w.push_back(s.leakage_w + s.tec_w + s.fan_w);
    }
  }
  phase.elapsed_s = ms_between(t0, last) / 1000.0;
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t i = 0; i < n; ++i) {
    if (!got[i]) continue;
    const char* kind = plan[i].kind == Kind::kLut         ? "lut"
                       : plan[i].kind == Kind::kTransient ? "transient"
                       : plan[i].session % 2 == 1          ? "solve_direct"
                                                           : "solve_iterative";
    by_kind[kind].push_back(ms_between(due(i), received[i]));
  }
  for (const auto& [kind, ms] : by_kind) {
    report.info["raw_op_ms_p50_by_kind"][kind] = median(ms);
  }

  return phase;
}

/// A started cluster with every session bound through its router.
struct Bound {
  std::unique_ptr<oftec::cluster::Cluster> cluster;
  std::unique_ptr<serve::Client> admin;
  std::vector<std::uint64_t> session_ids;
};

Bound start_and_bind(const std::vector<serve::BindParams>& binds) {
  Bound b;
  oftec::cluster::ClusterOptions options;
  options.supervisor.workers = kWorkers;
  b.cluster = std::make_unique<oftec::cluster::Cluster>(options);
  b.cluster->start();
  b.admin = std::make_unique<serve::Client>(
      serve::Client::connect(b.cluster->port()));
  for (const serve::BindParams& p : binds) {
    b.session_ids.push_back(b.admin->bind(p).session);
  }
  return b;
}

// --- traced-run helpers -----------------------------------------------------

const json::Value& at(const json::Value& v, std::string_view key) {
  const json::Value* child = v.find(key);
  if (child == nullptr) {
    throw std::runtime_error("stats reply has no '" + std::string(key) + "'");
  }
  return *child;
}

/// Sum of a worker `server` counter over every worker of a cluster stats
/// reply.
double worker_counter(const json::Value& stats, std::string_view name) {
  double total = 0.0;
  for (const json::Value& w : at(stats, "workers").as_array()) {
    total += at(at(at(w, "stats"), "server"), name).as_number();
  }
  return total;
}

/// The process-wide obs registry as seen by worker 0 (in-process workers
/// share one registry, so any worker's view is the whole cluster's).
const json::Value& obs_view(const json::Value& stats) {
  return at(at(at(stats, "workers").as_array().at(0), "stats"), "obs");
}

double obs_counter(const json::Value& stats, std::string_view name) {
  return at(at(obs_view(stats), "counters"), name).as_number();
}

/// Quantile of the growth of an obs histogram between two scrapes.
double obs_quantile(const json::Value& before, const json::Value& after,
                    std::string_view name, double p) {
  const json::Value& h0 = at(at(obs_view(before), "histograms"), name);
  const json::Value& h1 = at(at(obs_view(after), "histograms"), name);
  oftec::obs::HistogramSnapshot delta;
  for (const json::Value& b : at(h1, "bounds").as_array()) {
    delta.bounds.push_back(b.as_number());
  }
  const auto& c0 = at(h0, "counts").as_array();
  const auto& c1 = at(h1, "counts").as_array();
  for (std::size_t i = 0; i < c1.size(); ++i) {
    const auto v = static_cast<std::uint64_t>(c1[i].as_number() -
                                              c0.at(i).as_number());
    delta.counts.push_back(v);
    delta.count += v;
  }
  return delta.count > 0 ? delta.quantile(p) : 0.0;
}

/// cluster.hop_us_p50: the same solve timed through the router and straight
/// to the owning worker's port, alternating, on a direct_solve session whose
/// factor is warm (so the engine's share is small and equal on both paths).
double measure_hop_us(Bound& bound, const Reference& ref, std::size_t session,
                      std::size_t rounds) {
  const std::uint64_t routed = bound.session_ids[session];
  const std::uint32_t slot = bound.cluster->router().owner_slot(routed);
  serve::Client direct =
      serve::Client::connect(bound.cluster->supervisor().port_of(slot));
  const std::uint64_t local = direct.bind(ref.binds[session]).session;
  const thermal::OperatingPoint p = ref.grids[session][0];
  (void)bound.admin->solve(routed, p.omega, p.current);
  (void)direct.solve(local, p.omega, p.current);
  std::vector<double> via_router, straight;
  const double cal_before = calibration_ms();
  for (std::size_t r = 0; r < rounds; ++r) {
    Clock::time_point t0 = Clock::now();
    (void)bound.admin->solve(routed, p.omega, p.current);
    via_router.push_back(ms_since(t0) * 1000.0);
    t0 = Clock::now();
    (void)direct.solve(local, p.omega, p.current);
    straight.push_back(ms_since(t0) * 1000.0);
  }
  direct.unbind(local);
  const double cal = 0.5 * (cal_before + calibration_ms());
  return (median(via_router) - median(straight)) * kReferenceCalibrationMs /
         cal;
}

/// Per-layer metrics from the growth of the workers' counters and stage
/// histograms between two stats scrapes taken around the traced phase.
void report_stats_delta(Report& report, const json::Value& before,
                        const json::Value& after) {
  const auto grew = [&](std::string_view name) {
    return obs_counter(after, name) - obs_counter(before, name);
  };
  const auto server_grew = [&](std::string_view name) {
    return worker_counter(after, name) - worker_counter(before, name);
  };
  const double points = grew("solve_engine.points");
  const double linear = grew("solve_engine.linear_solves");
  const double factorizations = grew("solve_engine.factorizations");
  const double factor_hits = grew("solve_engine.factor_hits");
  report.metric("la.cg_iters_per_solve",
                ratio(grew("solve_engine.cg_iterations_total"), linear),
                "count");
  report.metric("thermal.newton_per_point", ratio(linear, points), "count");
  report.metric("thermal.direct_share",
                ratio(grew("solve_engine.direct_fallbacks"), linear), "ratio");
  report.metric("thermal.factor_hit_ratio",
                ratio(factor_hits, factor_hits + factorizations), "ratio");
  report.metric("serve.queue_us_p50",
                obs_quantile(before, after, "serve.queue_wait_us", 0.5), "us");
  report.metric("serve.queue_us_p99",
                obs_quantile(before, after, "serve.queue_wait_us", 0.99), "us");
  report.metric("serve.batch_us_p50",
                obs_quantile(before, after, "serve.batch_wait_us", 0.5), "us");
  report.metric("serve.solve_us_p50",
                obs_quantile(before, after, "serve.solve_us", 0.5), "us");
  report.metric("serve.solve_us_p99",
                obs_quantile(before, after, "serve.solve_us", 0.99), "us");
  report.metric("serve.batch_size_mean",
                ratio(server_grew("batched_points"), server_grew("batches")),
                "count");
  report.metric("serve.dedup_ratio",
                ratio(server_grew("dedup_hits"), server_grew("batched_points")),
                "ratio");
  report.metric("serve.shed", server_grew("shed"), "count");
}

/// Layer probes on the sessions' own systems: CG on an iterative session,
/// the steady Cholesky on a direct one.
void report_probes(Report& report, const Reference& ref) {
  Timings cg, factor;
  double factor_mflop = 0.0;
  for (int k = 0; k < 20; ++k) {
    const double cal = calibration_ms();
    const thermal::OperatingPoint p = ref.grids[0][0];
    const thermal::SteadyResult s = ref.systems[0]->engine().solve(p);
    cg.add(probe_cg(*ref.systems[0], p.omega, p.current, s.chip_temperatures)
               .ms,
           cal);
    const thermal::OperatingPoint q = ref.grids[1][0];
    const thermal::SteadyResult d = ref.systems[1]->engine().solve(q);
    const FactorProbe f = probe_steady_cholesky(*ref.systems[1], q.omega,
                                                q.current, d.chip_temperatures);
    factor.add(f.ms, cal);
    factor_mflop = f.mflop;
  }
  report.metric("la.cg_solve_ms", median(cg.ms), "ms");
  report.metric("la.factor_ms", median(factor.ms), "ms");
  report.metric("la.factor_mflop", factor_mflop, "Mflop");
  report.info["computed"].push_back("la.factor_mflop");
}

}  // namespace

Report run_serve_mix(const Options& options, Tracer& tracer) {
  Report report;
  std::unique_ptr<Reference> ref = make_reference(options.seed);

  // Set-up: start the cluster and bind every session, several times.
  Timings setup;
  Bound bound;
  for (int k = 0; k < setup_repeats(options); ++k) {
    bound = Bound{};  // tears down the previous repetition's cluster
    const double cal_before = calibration_ms();
    const Clock::time_point t0 = Clock::now();
    bound = start_and_bind(ref->binds);
    const double ms = ms_since(t0);
    setup.add(ms, 0.5 * (cal_before + calibration_ms()));
  }

  // Plans and expected answers, outside any timed phase.
  const double plain_s = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<std::vector<Planned>> plans = {
      make_plan(*ref, plain_s, options.seed)};
  if (options.trace) {
    plans.push_back(make_plan(*ref, options.seconds / 2.0, options.seed + 1));
  }
  std::vector<std::vector<Expected>> expected(plans.size());
  std::vector<std::vector<std::string>> payloads(plans.size());
  for (std::size_t ph = 0; ph < plans.size(); ++ph) {
    for (std::size_t i = 0; i < plans[ph].size(); ++i) {
      expected[ph].push_back(expect(*ref, plans[ph][i]));
      payloads[ph].push_back(
          encode(plans[ph][i], i + 1, bound.session_ids, *ref));
      if (plans[ph][i].kind == Kind::kSolve && expected[ph].back().solve.runaway) {
        report.fail("serve_mix: planned solve point runs away");
      }
    }
  }

  // Warm-up: every grid point of every session once, one lut, one transient.
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (const thermal::OperatingPoint& p : ref->grids[s]) {
      (void)bound.admin->solve(bound.session_ids[s], p.omega, p.current);
    }
  }
  (void)bound.admin->lut(bound.session_ids[0], ref->lut_queries[0]);
  {
    Planned p;
    p.omega = ref->grids[0][0].omega;
    p.current = ref->grids[0][0].current;
    (void)bound.admin->transient(transient_params(bound.session_ids[0], p));
  }

  const std::uint16_t port = bound.cluster->port();
  const Phase plain = run_phase(port, plans[0], payloads[0], expected[0], 0,
                                tracer, report);
  report.info["rate_per_s"] = kRate;
  report.info["workers"] = static_cast<std::uint64_t>(kWorkers);
  report.info["sessions"] = static_cast<std::uint64_t>(kSessions);
  if (!options.trace) {
    report.metric("setup_s", median(setup.ms) / 1000.0, "s");
    report.metric("op_ms_p50", median(plain.latency.ms), "ms");
    report.metric("op_ms_p90", quantile(plain.latency.ms, 0.9), "ms");
    report.metric("ops_per_s", static_cast<double>(plain.ok) / plain.elapsed_s,
                  "1/s");
    report.metric("cooling_w", mean(plain.cooling_w), "W");
    report.ungated("op_ms_p99", quantile(plain.latency.ms, 0.99), "ms");
    report.ungated("peak_rss_mb", peak_rss_mb(), "MB");
    report.ungated("raw_setup_s", median(setup.raw_ms) / 1000.0, "s");
    report.ungated("raw_op_ms_p50", median(plain.latency.raw_ms), "ms");
    report.ungated("raw_op_ms_p90", quantile(plain.latency.raw_ms, 0.9), "ms");
    report.ungated("raw_op_ms_p99", quantile(plain.latency.raw_ms, 0.99),
                   "ms");
    report.ungated("gen_late_ms_p99", quantile(plain.late_ms, 0.99), "ms");
    report.info["samples"] =
        static_cast<std::uint64_t>(plain.latency.ms.size());
    report.info["p99_supported"] =
        tail_supported(plain.latency.ms.size(), 0.99);
  } else {
    oftec::obs::set_enabled(true);
    tracer.set_enabled(true);
    const json::Value before = bound.admin->stats(serve::StatsParams{});
    const Phase traced =
        run_phase(port, plans[1], payloads[1], expected[1], plans[0].size(),
                  tracer, report);
    const json::Value after = bound.admin->stats(serve::StatsParams{});
    tracer.set_enabled(false);
    oftec::obs::set_enabled(false);

    report_stats_delta(report, before, after);
    report.metric("gen.late_ms_p99", quantile(traced.late_ms, 0.99), "ms");
    report_trace_overhead(report, plain.latency, traced.latency);
    report_probes(report, *ref);
    report.metric("cluster.hop_us_p50",
                  measure_hop_us(bound, *ref, /*session=*/1, 200), "us");
  }
  const oftec::cluster::Router::Counters rc = bound.cluster->router().counters();
  if (options.trace) {
    report.metric("cluster.migrations", static_cast<double>(rc.migrations),
                  "count");
    report.metric("cluster.shed", static_cast<double>(rc.shed), "count");
    report.metric("cluster.transport_errors",
                  static_cast<double>(rc.transport_errors), "count");
  }
  report.info["router_forwarded"] = static_cast<std::uint64_t>(rc.forwarded);
  bound.admin.reset();
  bound.cluster->stop();
  return report;
}

}  // namespace perfbench
