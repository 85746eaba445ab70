#include "core/lut_controller.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/obs.h"
#include "util/thread_pool.h"

namespace oftec::core {

namespace {

const obs::Counter g_obs_lookups = obs::counter("lut.lookups");
const obs::Counter g_obs_builds = obs::counter("lut.builds");
const obs::Histogram g_obs_feature_distance =
    obs::histogram("lut.feature_distance", obs::exponential_bounds(0.01, 4.0, 8));

}  // namespace

la::Vector LutController::feature_of(const power::PowerMap& power) {
  return power.values();
}

LutController LutController::build(const std::vector<power::PowerMap>& training,
                                   const floorplan::Floorplan& fp,
                                   const power::LeakageModel& leakage,
                                   const CoolingSystem::Config& config,
                                   const OftecOptions& oftec_options,
                                   std::size_t threads) {
  if (training.empty()) {
    throw std::invalid_argument("LutController::build: no training maps");
  }
  OBS_SPAN("lut.build");
  g_obs_builds.add();
  LutController lut;
  lut.entries_.resize(training.size());
  const auto build_entry = [&](std::size_t i) {
    const power::PowerMap& map = training[i];
    CoolingSystem system(fp, map, leakage, config);
    const OftecResult r = run_oftec(system, oftec_options);
    Entry e;
    e.feature = feature_of(map);
    e.feasible = r.success;
    e.status = r.status;
    if (r.success) {
      e.omega = r.omega;
      e.current = r.current;
      e.max_chip_temperature = r.max_chip_temperature;
    } else {
      // Store the min-temperature setting so the controller still reacts
      // sensibly to loads it cannot fully cool.
      e.omega = r.opt2_omega;
      e.current = r.opt2_current;
      e.max_chip_temperature = r.opt2_temperature;
    }
    lut.entries_[i] = std::move(e);
  };
  util::ThreadPool(threads).parallel_for(training.size(), build_entry);
  return lut;
}

LutController::LookupResult LutController::lookup(
    const power::PowerMap& power) const {
  if (entries_.empty()) {
    throw std::logic_error("LutController::lookup: empty table");
  }
  const la::Vector query = feature_of(power);

  LookupResult best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.feature.size() != query.size()) {
      throw std::invalid_argument("LutController::lookup: floorplan mismatch");
    }
    double dist2 = 0.0;
    for (std::size_t j = 0; j < query.size(); ++j) {
      const double d = query[j] - e.feature[j];
      dist2 += d * d;
    }
    if (dist2 < best_dist) {
      best_dist = dist2;
      best.entry_index = i;
    }
  }
  const Entry& chosen = entries_[best.entry_index];
  best.omega = chosen.omega;
  best.current = chosen.current;
  best.feasible = chosen.feasible;
  best.status = chosen.status;
  best.feature_distance = std::sqrt(best_dist);
  g_obs_lookups.add();
  if (obs::enabled()) g_obs_feature_distance.observe(best.feature_distance);
  return best;
}

}  // namespace oftec::core
