// Power–temperature Pareto front: what Fig. 6(e)'s observation ("OFTEC
// slightly increases the temperature in order to reduce the cooling power")
// looks like when the thermal threshold itself is swept. For Quicksort,
// each relaxed degree of allowed die temperature buys a measurable amount
// of cooling power — until the constraint stops binding.
//
// Also times the sweep three ways: the reference path (fresh CoolingSystem
// per threshold, the seed structure), the shared-system path (evaluations
// are threshold-independent, so one memoized system serves all thresholds),
// and the shared path fanned across the OFTEC_THREADS pool. All three must
// produce the same frontier: the exit code is 1 when they do not.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/pareto.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace {

bool fronts_equal(const std::vector<oftec::core::ParetoPoint>& a,
                  const std::vector<oftec::core::ParetoPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].feasible != b[i].feasible || a[i].omega != b[i].omega ||
        a[i].current != b[i].current ||
        a[i].cooling_power != b[i].cooling_power) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace oftec;
  using namespace oftec::bench;

  print_header("Cooling-power vs temperature Pareto front (Quicksort)",
               "the Optimization-1 trade-off as a curve: each allowed "
               "degree buys cooling power until the constraint stops "
               "binding");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort), fp);

  core::ParetoOptions opts;
  opts.t_limit_lo_c = 84.0;
  opts.t_limit_hi_c = 104.0;
  opts.points = 11;

  opts.share_system = false;
  const util::Stopwatch ref_watch;
  const auto reference =
      core::sweep_pareto_front(fp, peak, paper_leakage(), opts);
  const double ref_ms = ref_watch.elapsed_ms();

  opts.share_system = true;
  const util::Stopwatch shared_watch;
  const auto front =
      core::sweep_pareto_front(fp, peak, paper_leakage(), opts);
  const double shared_ms = shared_watch.elapsed_ms();

  opts.threads = 0;  // OFTEC_THREADS / hardware concurrency
  const util::Stopwatch pool_watch;
  const auto threaded =
      core::sweep_pareto_front(fp, peak, paper_leakage(), opts);
  const double pool_ms = pool_watch.elapsed_ms();

  std::printf("\nSweep timing (%zu thresholds):\n", opts.points);
  std::printf("  per-threshold systems   %7.1f ms\n", ref_ms);
  std::printf("  shared system, serial   %7.1f ms  (%.2fx)\n", shared_ms,
              ref_ms / shared_ms);
  const bool identical =
      fronts_equal(front, reference) && fronts_equal(front, threaded);
  std::printf("  shared system, %zu thr    %7.1f ms  (%.2fx, fronts %s)\n",
              util::ThreadPool::default_thread_count(), pool_ms,
              ref_ms / pool_ms, identical ? "identical" : "MISMATCH");

  std::printf("\n  T limit [C]   feasible   P* [W]   T achieved [C]   "
              "I* [A]   w* [RPM]\n");
  std::printf("  -----------------------------------------------------------"
              "-------\n");
  double last_power = -1.0;
  double knee_c = 0.0;
  for (const core::ParetoPoint& pt : front) {
    if (pt.feasible) {
      std::printf("  %11.1f   %8s %8.2f %16.2f %8.2f %10.0f\n",
                  units::kelvin_to_celsius(pt.t_limit), "yes",
                  pt.cooling_power,
                  units::kelvin_to_celsius(pt.max_chip_temperature),
                  pt.current, units::rad_s_to_rpm(pt.omega));
      if (last_power > 0.0 && last_power - pt.cooling_power < 0.05 &&
          knee_c == 0.0) {
        knee_c = units::kelvin_to_celsius(pt.t_limit);
      }
      last_power = pt.cooling_power;
    } else {
      std::printf("  %11.1f   %8s %8s %16.2f %8s %10s\n",
                  units::kelvin_to_celsius(pt.t_limit), "NO", "-",
                  units::kelvin_to_celsius(pt.max_chip_temperature), "-",
                  "-");
    }
  }
  if (knee_c > 0.0) {
    std::printf("\nThe frontier flattens near %.0f C — beyond that the "
                "thermal constraint no longer binds and OFTEC's optimum "
                "stops moving.\n", knee_c);
  }
  return identical ? 0 : 1;
}
