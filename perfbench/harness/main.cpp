// perfbench — the OFTEC benchmark harness.
//
//   perfbench --workload alg1|dtm_lut|serve_mix --seed N --seconds S
//             --trace 0|1 [--smoke] [--golden CSV] [--spans-out FILE]
//
// Runs one workload from this single process, checks every output, and
// prints two lines: an info line ({"perfbench": {...}} — run context, sample
// counts, failures) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run. The exit code is 0 only when every check passed
// and no op failed. perfbench/run.py builds and invokes this binary.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "la/backend.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Options;
using perfbench::Report;
namespace json = oftec::util::json;

/// End-to-end metrics every workload prints (BENCHMARK.json `end_to_end`).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},     {"op_ms_p50", "ms"}, {"op_ms_p90", "ms"},
      {"ops_per_s", "1/s"}, {"cooling_w", "W"},
  };
  return names;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "alg1|dtm_lut|serve_mix --seed N --seconds S --trace 0|1 "
               "[--smoke] [--golden CSV] [--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    seen.insert(arg);
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--golden") {
        o.golden = value;
      } else if (arg == "--spans-out") {
        o.spans_out = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds"}) {
    if (seen.count(required) == 0) usage(std::string("missing ") + required);
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  return o;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Noise hygiene: one engine-pool thread per SolveEngine / TransientEngine,
  // so busy threads stay within the core count (set before any pool exists).
  setenv("OFTEC_THREADS", "1", 1);

  perfbench::Tracer tracer;
  Report report;
  try {
    if (options.workload == "alg1") {
      report = perfbench::run_alg1(options, tracer);
    } else if (options.workload == "dtm_lut") {
      report = perfbench::run_dtm_lut(options, tracer);
    } else if (options.workload == "serve_mix") {
      report = perfbench::run_serve_mix(options, tracer);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  // The metrics in BENCHMARK.json order; a missing end-to-end metric or a
  // unit mismatch is a harness bug.
  std::map<std::string, Report::Metric> measured;
  for (const Report::Metric& m : report.metrics) measured[m.name] = m;
  const auto& wanted =
      options.trace ? perfbench::per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  json::Value not_on_path = json::Value::array();
  for (const auto& [name, unit] : wanted) {
    double value = 0.0;
    const auto it = measured.find(name);
    if (it != measured.end()) {
      if (it->second.unit != unit) {
        std::fprintf(stderr, "perfbench: %s has unit %s, expected %s\n",
                     name.c_str(), it->second.unit.c_str(), unit.c_str());
        return 1;
      }
      value = it->second.value;
    } else if (options.trace) {
      not_on_path.push_back(name);
    } else {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n",
                   name.c_str());
      return 1;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + unit + "\"}";
  }

  if (options.trace && !options.spans_out.empty()) {
    if (!tracer.write(options.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.spans_out.c_str());
    }
    report.info["spans"] = static_cast<std::uint64_t>(tracer.size());
    report.info["spans_out"] = options.spans_out;
  }

  json::Value context = json::Value::object();
  context["workload"] = options.workload;
  context["seed"] = static_cast<std::uint64_t>(options.seed);
  context["seconds"] = options.seconds;
  context["trace"] = options.trace;
  context["smoke"] = options.smoke;
  context["nproc"] = static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN));
  context["hardware_concurrency"] = std::thread::hardware_concurrency();
  context["la_backend"] = oftec::la::backend().name;
  context["pool_threads"] = static_cast<std::uint64_t>(
      oftec::util::ThreadPool::default_thread_count());
  context["grid"] = "10x10";
  report.info["context"] = std::move(context);
  if (options.trace) report.info["not_on_path"] = std::move(not_on_path);
  report.ungated("fail_share",
                 report.attempted > 0
                     ? static_cast<double>(report.failed) /
                           static_cast<double>(report.attempted)
                     : 0.0,
                 "ratio");
  json::Value info_line = json::Value::object();
  info_line["perfbench"] = std::move(report.info);

  const bool ok = report.correct && report.failed == 0 && report.attempted > 0;
  std::printf("%s\n", info_line.dump().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
