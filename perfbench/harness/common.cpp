#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>

#include "util/rng.h"
#include "workload/benchmarks.h"

namespace perfbench {

namespace json = oftec::util::json;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool tail_supported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

int setup_repeats(const Options& options) { return options.smoke ? 1 : 5; }

namespace {

/// Naive right-looking dense Cholesky of a fixed 128×128 SPD matrix
/// (128 KiB, L2-resident) [ms].
double calibration_kernel_ms() {
  constexpr int n = 128;
  static thread_local std::vector<double> a(n * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[i * n + j] = i == j ? n + 1.0 : 1.0 / (1.0 + std::abs(i - j));
    }
  }
  const Clock::time_point t0 = Clock::now();
  for (int j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (int k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    d = std::sqrt(d);
    a[j * n + j] = d;
    for (int i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (int k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / d;
    }
  }
  volatile double sink = a[n * n - 1];
  (void)sink;
  return ms_since(t0);
}

}  // namespace

double calibration_ms(int runs) {
  std::vector<double> v;
  for (int r = 0; r < runs; ++r) v.push_back(calibration_kernel_ms());
  return median(std::move(v));
}

CalibrationSampler::CalibrationSampler(std::chrono::milliseconds period)
    : thread_([this, period] { loop(period); }) {}

CalibrationSampler::~CalibrationSampler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void CalibrationSampler::loop(std::chrono::milliseconds period) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    const Clock::time_point at = Clock::now();
    const double ms = calibration_ms();
    lock.lock();
    samples_.emplace_back(at, ms);
    wake_.wait_for(lock, period, [this] { return stop_; });
  }
}

double CalibrationSampler::around(Clock::time_point t,
                                  std::chrono::milliseconds window) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> near;
  double nearest = kReferenceCalibrationMs;
  Clock::duration best = Clock::duration::max();
  for (const auto& [at, ms] : samples_) {
    const Clock::duration d = at > t ? at - t : t - at;
    if (d <= window) near.push_back(ms);
    if (d < best) {
      best = d;
      nearest = ms;
    }
  }
  return near.empty() ? nearest : median(std::move(near));
}

std::vector<oftec::workload::PowerTrace> trace_windows(
    const oftec::floorplan::Floorplan& fp, std::uint64_t seed,
    std::size_t per_profile) {
  namespace workload = oftec::workload;
  constexpr std::size_t kTraceSamples = 200;
  constexpr std::size_t kWindowSamples = 50;
  oftec::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xA1);
  std::vector<workload::PowerTrace> windows;
  for (std::size_t w = 0; w < per_profile; ++w) {
    for (const workload::Benchmark b : workload::all_benchmarks()) {
      workload::TraceOptions topts;
      topts.sample_count = kTraceSamples;
      topts.sample_interval = 10e-3;
      topts.seed = rng.next_u64();
      const workload::PowerTrace trace =
          workload::generate_trace(workload::profile_for(b), fp, topts);
      const auto start = static_cast<long>(
          rng.uniform_index(kTraceSamples - kWindowSamples + 1));
      workload::PowerTrace window;
      window.sample_interval = trace.sample_interval;
      window.samples.assign(trace.samples.begin() + start,
                            trace.samples.begin() + start + kWindowSamples);
      windows.push_back(std::move(window));
    }
  }
  return windows;
}

void Report::ungated(const std::string& name, double value,
                     const std::string& unit) {
  json::Value entry = json::Value::object();
  entry["value"] = value;
  entry["unit"] = unit;
  info["ungated"][name] = std::move(entry);
}

void report_closed_loop(Report& report, const Timings& setup,
                        const Timings& ops,
                        const std::vector<double>& cooling_w) {
  const auto per_s = [](const std::vector<double>& ms) {
    return 1000.0 * static_cast<double>(ms.size()) /
           std::accumulate(ms.begin(), ms.end(), 0.0);
  };
  report.metric("setup_s", median(setup.ms) / 1000.0, "s");
  report.metric("op_ms_p50", median(ops.ms), "ms");
  report.metric("op_ms_p90", quantile(ops.ms, 0.9), "ms");
  report.metric("ops_per_s", per_s(ops.ms), "1/s");
  const std::size_t rounds = cooling_w.size() >= 8 ? cooling_w.size() / 8 * 8
                                                  : cooling_w.size();
  report.metric("cooling_w",
                mean({cooling_w.begin(),
                      cooling_w.begin() + static_cast<long>(rounds)}),
                "W");
  report.ungated("peak_rss_mb", peak_rss_mb(), "MB");
  report.ungated("raw_setup_s", median(setup.raw_ms) / 1000.0, "s");
  report.ungated("raw_op_ms_p50", median(ops.raw_ms), "ms");
  report.ungated("raw_op_ms_p90", quantile(ops.raw_ms, 0.9), "ms");
  report.ungated("raw_ops_per_s", per_s(ops.raw_ms), "1/s");
  std::vector<double> calibration;
  for (std::size_t i = 0; i < ops.ms.size(); ++i) {
    calibration.push_back(ops.raw_ms[i] * kReferenceCalibrationMs / ops.ms[i]);
  }
  report.info["calibration_ms_median"] = median(calibration);
  report.info["samples"] = static_cast<std::uint64_t>(ops.ms.size());
  report.info["p90_supported"] = tail_supported(ops.ms.size(), 0.9);
  report.info["cooling_w_ops"] = static_cast<std::uint64_t>(rounds);
}

void report_trace_overhead(Report& report, const Timings& untraced,
                           const Timings& traced) {
  const double base = median(untraced.ms);
  report.metric("trace.overhead", median(traced.ms) / base - 1.0, "ratio");
  report.info["untraced_op_ms_p50"] = base;
  report.info["traced_op_ms_p50"] = median(traced.ms);
}

void Report::fail(const std::string& what) {
  correct = false;
  ++failed;
  json::Value& list = info["failures"];
  if (list.is_null() || list.as_array().size() < 20) list.push_back(what);
}

namespace {
thread_local std::vector<std::int64_t> t_open_spans;
}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  const double start = now_us();
  const std::int64_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, op, parent, start, start});
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const double end = now_us();
  if (!t_open_spans.empty() && t_open_spans.back() == index) {
    t_open_spans.pop_back();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

void Tracer::record(const char* name, std::uint64_t op, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, op, -1, us(start), us(end)});
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %lld, \"op\": %llu}%s\n",
                  s.name, s.start_us, s.end_us,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"la.cg_iters_per_solve", "count"},
      {"la.cg_solve_ms", "ms"},
      {"la.factor_ms", "ms"},
      {"la.factor_mflop", "Mflop"},
      {"thermal.solve_point_ms", "ms"},
      {"thermal.newton_per_point", "count"},
      {"thermal.direct_share", "ratio"},
      {"thermal.factor_hit_ratio", "ratio"},
      {"thermal.step_ms", "ms"},
      {"thermal.factorizations_per_step", "count"},
      {"thermal.steady_init_ms", "ms"},
      {"core.system_build_ms", "ms"},
      {"core.oftec_ms", "ms"},
      {"core.solves_per_decision", "count"},
      {"core.memo_hit_ratio", "ratio"},
      {"opt.share", "ratio"},
      {"core.lut_build_s", "s"},
      {"core.lut_lookup_us", "us"},
      {"core.dtm_fallbacks", "count"},
      {"serve.queue_us_p50", "us"},
      {"serve.queue_us_p99", "us"},
      {"serve.batch_us_p50", "us"},
      {"serve.solve_us_p50", "us"},
      {"serve.solve_us_p99", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.dedup_ratio", "ratio"},
      {"serve.shed", "count"},
      {"cluster.hop_us_p50", "us"},
      {"cluster.migrations", "count"},
      {"cluster.shed", "count"},
      {"cluster.transport_errors", "count"},
      {"gen.late_ms_p99", "ms"},
      {"trace.overhead", "ratio"},
  };
  return names;
}

}  // namespace perfbench
