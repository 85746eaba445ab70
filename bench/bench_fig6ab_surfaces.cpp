// Figure 6(a) and 6(b): the objective surfaces of Optimizations 2 and 1 for
// the Basicmath benchmark — maximum die temperature 𝒯(ω, I) and cooling
// power 𝒫(ω, I) over the (ω, I_TEC) plane.
//
// The paper's observations to reproduce:
//   * both surfaces blow up (→ ∞, "dark red") at small ω: thermal runaway;
//   * raising I alone cannot escape runaway — ω must rise too (~150 RPM);
//   * the 𝒯 minimum sits away from the origin; the 𝒫 minimum sits near it;
//   * both surfaces are smooth with only minor non-convexities.
//
// The sweep runs on the batched SolveEngine and doubles as its shop-floor
// benchmark: the engine is timed serially and batched across the
// OFTEC_THREADS pool, and the batch is checked bit-identical to the engine's
// serial pass.
//
// Output: a coarse ASCII heat map per surface plus CSVs
// (fig6a_temperature.csv / fig6b_power.csv) for re-plotting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common.h"
#include "thermal/solve_engine.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/units.h"

namespace {

using namespace oftec;
using namespace oftec::bench;

constexpr std::size_t kOmegaPoints = 25;
constexpr std::size_t kCurrentPoints = 21;

char shade(double value, double lo, double hi) {
  if (!std::isfinite(value)) return '#';  // runaway ("dark red")
  static const char ramp[] = " .:-=+*%@";
  const double t = std::clamp((value - lo) / (hi - lo), 0.0, 1.0);
  return ramp[static_cast<std::size_t>(t * 8.0)];
}

}  // namespace

int main() {
  print_header("Figure 6(a,b): objective surfaces over (w, I) — Basicmath",
               "runaway at low w regardless of I; T-minimum away from the "
               "origin, P-minimum near it; only minor non-convexity");

  const floorplan::Floorplan& fp = paper_floorplan();
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kBasicmath), fp);
  const core::CoolingSystem sys(fp, peak, paper_leakage(), {});
  const thermal::SolveEngine& engine = sys.engine();

  // Grid in (I-major, ω-minor) order — the order the CSVs are written in.
  std::vector<thermal::OperatingPoint> pts;
  pts.reserve(kCurrentPoints * kOmegaPoints);
  for (std::size_t ci = 0; ci < kCurrentPoints; ++ci) {
    const double current = sys.current_max() * static_cast<double>(ci) /
                           (kCurrentPoints - 1);
    for (std::size_t wi = 0; wi < kOmegaPoints; ++wi) {
      const double omega =
          sys.omega_max() * static_cast<double>(wi) / (kOmegaPoints - 1);
      pts.push_back({omega, current});
    }
  }

  // --- Timing: engine serial vs batched.
  const util::Stopwatch serial_watch;
  const std::vector<thermal::SteadyResult> serial =
      engine.solve_serial(pts);
  const double serial_ms = serial_watch.elapsed_ms();

  const util::Stopwatch batch_watch;
  const std::vector<thermal::SteadyResult> batch = engine.solve_batch(pts);
  const double batch_ms = batch_watch.elapsed_ms();

  bool batch_identical = true;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (batch[i].runaway != serial[i].runaway ||
        batch[i].max_chip_temperature != serial[i].max_chip_temperature ||
        batch[i].tec_power != serial[i].tec_power ||
        batch[i].leakage_power != serial[i].leakage_power) {
      batch_identical = false;
      break;
    }
  }

  const double serial_ms_per_pt = serial_ms / static_cast<double>(pts.size());
  const double batch_ms_per_pt = batch_ms / static_cast<double>(pts.size());
  std::printf("\nSolve engine timing over %zu operating points:\n",
              pts.size());
  std::printf("  engine, serial     %7.2f ms/pt\n", serial_ms_per_pt);
  std::printf("  engine, batched    %7.2f ms/pt  (%.2fx, %zu threads, "
              "results %s)\n",
              batch_ms_per_pt, serial_ms_per_pt / batch_ms_per_pt,
              util::ThreadPool::default_thread_count(),
              batch_identical ? "bit-identical to serial" : "MISMATCH");

  // --- Surfaces from the batched results.
  util::CsvWriter temp_csv, power_csv;
  temp_csv.set_header({"omega_rpm", "current_a", "max_temp_c"});
  power_csv.set_header({"omega_rpm", "current_a", "cooling_power_w"});

  std::vector<std::vector<double>> temp(kCurrentPoints),
      power(kCurrentPoints);
  double t_lo = 1e300, t_hi = 0.0, p_lo = 1e300, p_hi = 0.0;
  double t_best = 1e300, p_best = 1e300;
  double t_best_w = 0, t_best_i = 0, p_best_w = 0, p_best_i = 0;
  double runaway_boundary_rpm = 0.0;

  for (std::size_t ci = 0; ci < kCurrentPoints; ++ci) {
    for (std::size_t wi = 0; wi < kOmegaPoints; ++wi) {
      const thermal::SteadyResult& sr = batch[ci * kOmegaPoints + wi];
      const double omega = pts[ci * kOmegaPoints + wi].omega;
      const double current = pts[ci * kOmegaPoints + wi].current;
      const bool runaway = sr.runaway || !sr.converged;
      const double rpm = units::rad_s_to_rpm(omega);
      const double t_k = runaway ? std::numeric_limits<double>::infinity()
                                 : sr.max_chip_temperature;
      const double t_c = units::kelvin_to_celsius(t_k);
      const double p_w =
          runaway ? std::numeric_limits<double>::infinity()
                  : sr.leakage_power + sr.tec_power +
                        sys.thermal_model().config().fan.power(omega);
      temp[ci].push_back(t_k);
      power[ci].push_back(p_w);
      temp_csv.add_row({util::format_double(rpm, 1),
                        util::format_double(current, 3),
                        runaway ? "inf" : util::format_double(t_c, 3)});
      power_csv.add_row({util::format_double(rpm, 1),
                         util::format_double(current, 3),
                         runaway ? "inf" : util::format_double(p_w, 3)});
      if (runaway) {
        runaway_boundary_rpm = std::max(runaway_boundary_rpm, rpm);
      } else {
        t_lo = std::min(t_lo, t_k);
        t_hi = std::max(t_hi, t_k);
        p_lo = std::min(p_lo, p_w);
        p_hi = std::max(p_hi, p_w);
        if (t_k < t_best) {
          t_best = t_k;
          t_best_w = rpm;
          t_best_i = current;
        }
        if (p_w < p_best) {
          p_best = p_w;
          p_best_w = rpm;
          p_best_i = current;
        }
      }
    }
  }

  auto print_surface = [&](const char* title,
                           const std::vector<std::vector<double>>& grid,
                           double lo, double hi) {
    std::printf("\n%s  ('#' = thermal runaway; darker = higher)\n", title);
    std::printf("I[A]\\w[RPM] 0%*s%.0f\n", static_cast<int>(kOmegaPoints) - 6,
                "", units::rad_s_to_rpm(524.0));
    for (std::size_t ci = kCurrentPoints; ci-- > 0;) {
      std::printf("%5.2f ", 5.0 * static_cast<double>(ci) /
                                (kCurrentPoints - 1));
      for (const double v : grid[ci]) std::putchar(shade(v, lo, hi));
      std::putchar('\n');
    }
  };

  print_surface("Fig 6(a): max die temperature T(w, I)", temp, t_lo, t_hi);
  print_surface("Fig 6(b): cooling power P(w, I)", power, p_lo, p_hi);

  std::printf("\nRunaway region extends to w = %.0f RPM "
              "(paper: ~150 RPM needed to escape).\n", runaway_boundary_rpm);
  std::printf("T minimum: %.2f C at (%.0f RPM, %.2f A) — away from origin.\n",
              units::kelvin_to_celsius(t_best), t_best_w, t_best_i);
  std::printf("P minimum: %.2f W at (%.0f RPM, %.2f A) — near the origin.\n",
              p_best, p_best_w, p_best_i);

  if (temp_csv.write_file("fig6a_temperature.csv") &&
      power_csv.write_file("fig6b_power.csv")) {
    std::printf("Wrote fig6a_temperature.csv / fig6b_power.csv.\n");
  }
  return batch_identical ? 0 : 1;
}
