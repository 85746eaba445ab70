// Shared plumbing of the perfbench harness: run options, the result report,
// order statistics, and the in-memory span recorder behind `--trace 1`.
//
// The harness measures the OFTEC library from outside: every span wraps a
// call into one module's public API (la → thermal → opt/core → serve →
// cluster), so a later change inside the library cannot move the
// measurement points.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "floorplan/floorplan.h"
#include "util/json.h"
#include "workload/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  /// Few ops, one set-up, no tail-sample requirement (the self-test).
  bool smoke = false;
  std::string golden = "tests/integration/data/table2_golden.csv";
  std::string spans_out;  ///< where --trace 1 writes its spans; empty = none
};

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double ms_since(Clock::time_point t0);

/// Linear-interpolation quantile (p in [0, 1]); NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// num / den, or 0 when den is 0 (a counter ratio with nothing counted).
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}
/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();
/// True when a tail quantile p has at least ten samples beyond it.
[[nodiscard]] bool tail_supported(std::size_t n, double p);
/// Exact IEEE-bit equality (NaN == NaN, +0 != −0).
[[nodiscard]] bool same_bits(double a, double b);

// --- host-speed calibration ---------------------------------------------
//
// The vCPUs this benchmark was tuned on change speed by 20–40 % within
// seconds to minutes (other tenants), which no raw wall time survives. So
// every timed interval is also scaled to a reference host speed:
//
//   time at reference speed = measured time × kReferenceCalibrationMs
//                             / calibration time measured next to it
//
// The calibration kernel is harness code (a naive dense Cholesky that fits
// in L2), so no change to the library can move it; a faster library shows
// as a smaller scaled time, a slower host does not.

/// Calibration time of the reference host speed [ms] (the kernel's typical
/// time on the 4-vCPU Xeon the bounds were set on).
inline constexpr double kReferenceCalibrationMs = 0.25;

/// Median of `runs` timings of the calibration kernel [ms].
[[nodiscard]] double calibration_ms(int runs = 5);

/// Timed intervals, as measured and at the reference host speed.
struct Timings {
  std::vector<double> raw_ms;
  std::vector<double> ms;

  void add(double raw, double calibration) {
    raw_ms.push_back(raw);
    ms.push_back(raw * kReferenceCalibrationMs / calibration);
  }
};

/// Samples the calibration kernel on its own thread every `period`, for
/// workloads whose ops are not timed one by one on the calling thread.
class CalibrationSampler {
 public:
  explicit CalibrationSampler(std::chrono::milliseconds period);
  ~CalibrationSampler();
  CalibrationSampler(const CalibrationSampler&) = delete;
  CalibrationSampler& operator=(const CalibrationSampler&) = delete;

  /// Median of the samples taken within `window` of `t` (the nearest
  /// sample when none is that close).
  [[nodiscard]] double around(Clock::time_point t,
                              std::chrono::milliseconds window) const;

 private:
  void loop(std::chrono::milliseconds period);

  mutable std::mutex mutex_;  // guards samples_ and stop_
  std::condition_variable wake_;
  std::vector<std::pair<Clock::time_point, double>> samples_;

  bool stop_ = false;
  std::thread thread_;  // last: started after the members it uses
};

/// Set-up is repeated this many times per run (the median is setup_s).
[[nodiscard]] int setup_repeats(const Options& options);

/// What one run prints: the result line plus an info line with the run
/// context and anything the result line has no room for.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  oftec::util::json::Value info = oftec::util::json::Value::object();

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A metric printed by name and unit under "ungated" on the info line but
  /// kept off the result line (not steady across seeds, or not defined on
  /// every workload).
  void ungated(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check (counts as a failed op).
  void fail(const std::string& what);
};

/// In-memory span recorder. Each span has a name, start and end (µs since
/// the recorder was made), the index of its parent span on the same thread
/// (−1 for a root) and the op id it belongs to. Nothing is written until
/// write() at exit. When disabled, open/close/record are no-ops.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span on the calling thread (child of its innermost open span).
  /// `name` must be a string literal. Returns the span index, −1 if off.
  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t index);
  /// Record a finished root span with explicit end points (for spans that
  /// start on one thread and end on another, such as a served request).
  void record(const char* name, std::uint64_t op, Clock::time_point start,
              Clock::time_point end);

  [[nodiscard]] std::size_t size() const;
  /// Write {"spans": [{name, start_us, end_us, parent, op}, ...]}.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  Clock::time_point epoch_;
  bool enabled_ = false;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span; `name` must be a string literal.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// The op pool of the closed-loop workloads: `per_profile` seeded 0.5-s
/// windows (50 samples at 10 ms) per MiBench profile, each cut at a seeded
/// offset from its own seeded 2-s trace. Entry i belongs to profile i mod 8,
/// so any eight consecutive entries cover every profile once; drawing each
/// window from a fresh trace averages the traces' random phase levels, so
/// per-seed means stay close.
[[nodiscard]] std::vector<oftec::workload::PowerTrace> trace_windows(
    const oftec::floorplan::Floorplan& fp, std::uint64_t seed,
    std::size_t per_profile);

/// The end-to-end metrics of a closed-loop workload: set-up and op times at
/// reference host speed, ops per second of op time, and the mean cooling
/// power over the first pass of the pool (cut to whole rounds of the eight
/// profiles); raw times and peak memory go under "ungated".
void report_closed_loop(Report& report, const Timings& setup,
                        const Timings& ops,
                        const std::vector<double>& cooling_w);

/// trace.overhead: traced over untraced op p50, minus one.
void report_trace_overhead(Report& report, const Timings& untraced,
                           const Timings& traced);

/// Per-layer metric names, in output order. A traced run prints all of
/// them; those the workload never reaches print 0 and are listed under
/// "not_on_path" on the info line.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Workload entry points (alg1.cpp, dtm_lut.cpp, serve_mix.cpp).
[[nodiscard]] Report run_alg1(const Options& options, Tracer& tracer);
[[nodiscard]] Report run_dtm_lut(const Options& options, Tracer& tracer);
[[nodiscard]] Report run_serve_mix(const Options& options, Tracer& tracer);

}  // namespace perfbench
