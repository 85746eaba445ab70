#include "thermal/transient_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/fault.h"
#include "util/obs.h"
#include "util/stopwatch.h"

namespace oftec::thermal {

namespace {

const obs::Counter g_obs_runs = obs::counter("transient_engine.runs");
const obs::Counter g_obs_steps = obs::counter("transient_engine.steps");
const obs::Counter g_obs_factorizations =
    obs::counter("transient_engine.factorizations");
const obs::Counter g_obs_factor_hits =
    obs::counter("transient_engine.factor_hits");
const obs::Counter g_obs_self_heals =
    obs::counter("transient_engine.self_heals");
const obs::Counter g_obs_slot_invalidations =
    obs::counter("transient_engine.slot_invalidations");
const obs::Counter g_obs_lu_fallbacks =
    obs::counter("transient_engine.lu_fallbacks");
const obs::Counter g_obs_batches = obs::counter("transient_engine.batches");
const obs::Gauge g_obs_steps_per_s =
    obs::gauge("transient_engine.steps_per_s");

/// Factors a stepper keeps warm (LRU): distinct (dt, ω, I, slopes) keys.
constexpr std::size_t kFactorSlots = 8;

// Injects a corrupt solution on the cached-factor path (a stale or
// bit-rotted factor slot); the stepper's self-heal must rebuild the factor
// and recover bit-identically.
const fault::Site g_fault_factor_corrupt =
    fault::site("transient_engine.factor_corrupt");

[[nodiscard]] std::uint64_t bits_of(double v) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void validate_options(const TransientOptions& options) {
  // duration == 0 is a valid no-op horizon: zero steps, state unchanged.
  if (options.time_step <= 0.0 || options.duration < 0.0) {
    throw std::invalid_argument("TransientEngine: bad time parameters");
  }
  if (options.record_stride == 0) {
    throw std::invalid_argument("TransientEngine: record_stride must be >= 1");
  }
  if (!(options.relinearization_threshold >= 0.0)) {
    throw std::invalid_argument(
        "TransientEngine: relinearization_threshold must be >= 0");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TransientStepper
// ---------------------------------------------------------------------------

TransientStepper::TransientStepper(
    const ThermalModel& model, std::vector<power::ExponentialTerm> cell_leakage)
    : TransientStepper(model, std::move(cell_leakage), Config()) {}

TransientStepper::TransientStepper(
    const ThermalModel& model,
    std::vector<power::ExponentialTerm> cell_leakage, Config config)
    : model_(&model),
      leakage_(std::move(cell_leakage)),
      config_(config),
      n_(model.layout().node_count()),
      cells_(model.layout().cells_per_layer()),
      bw_(model.layout().bandwidth()) {
  if (leakage_.size() != cells_) {
    throw std::invalid_argument("TransientStepper: per-cell arity mismatch");
  }

  // The model's static part; the per-step stamps add the operating point in
  // ThermalModel::assemble's order, so every entry accumulates assemble()'s
  // additions in its order. Only the lower band is kept.
  AssembledSystem base = model.static_system();
  base_lower_ = la::lower_band(base.matrix);
  base_rhs_ = std::move(base.rhs);

  cell_current_.assign(cells_, 0.0);
  rhs_.assign(n_, 0.0);
  next_.assign(n_, 0.0);
  chip_next_.assign(cells_, 0.0);
  cold_.assign(cells_, 0.0);
  hot_.assign(cells_, 0.0);
  taylor_.resize(cells_);
  exact_slope_.assign(cells_, 0.0);
  key_slopes_.assign(cells_, 0);
  slots_.resize(kFactorSlots);
  for (FactorSlot& slot : slots_) slot.key_slopes.assign(cells_, 0);

  reset(la::Vector(n_, model.config().ambient));
}

void TransientStepper::configure(double runaway_temperature,
                                 double relinearization_threshold,
                                 RunawayCheck check) {
  config_.runaway_temperature = runaway_temperature;
  config_.relinearization_threshold = relinearization_threshold;
  config_.runaway_check = check;
}

void TransientStepper::reset(const la::Vector& initial_temperatures) {
  if (initial_temperatures.size() != n_) {
    throw std::invalid_argument("TransientStepper::reset: state arity");
  }
  temps_ = initial_temperatures;
  const NodeLayout& layout = model_->layout();
  chip_.resize(cells_);
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    chip_[cell] = temps_[layout.node(Slab::kChip, cell)];
  }
  // max_element_value's exact semantics (front, then max over all).
  double m = chip_.front();
  for (const double v : chip_) m = std::max(m, v);
  max_chip_ = m;
  holding_ = false;
}

void TransientStepper::linearize_leakage() {
  // Exact p(Tₙ) and t_ref = Tₙ every step, slopes refreshed together once
  // one drifts past the tolerance.
  bool refresh = !holding_;
  for (std::size_t i = 0; i < cells_; ++i) {
    const power::TaylorCoefficients exact =
        power::tangent_linearize(leakage_[i], chip_[i]);
    refresh |= std::abs(exact.a - taylor_[i].a) >
               config_.relinearization_threshold * taylor_[i].a;
    exact_slope_[i] = exact.a;
    taylor_[i].b = exact.b;
    taylor_[i].t_ref = exact.t_ref;
  }
  holding_ = true;
  if (!refresh) return;
  bool slopes_changed = false;
  for (std::size_t i = 0; i < cells_; ++i) {
    taylor_[i].a = exact_slope_[i];
    const std::uint64_t bits = bits_of(taylor_[i].a);
    slopes_changed |= bits != key_slopes_[i];
    key_slopes_[i] = bits;
  }
  if (!slopes_changed) return;
  // New slopes make every factor keyed on the old slopes unreachable for
  // this trace, yet "used" slots survive LRU preference — so when every
  // step refreshes (tolerance 0) eviction used to cycle round-robin through
  // all slots, streaming the full multi-slot factor working set each step
  // and running *slower* than refactoring into one recycled buffer.
  // Invalidating the stale slots steers lru_slot() back to one cache-warm
  // buffer. Pure cache policy: factors are exact functions of their keys,
  // so results are unchanged bit-for-bit.
  for (FactorSlot& slot : slots_) {
    if (slot.used && slot.key_slopes != key_slopes_) {
      slot.used = false;
      ++n_slot_invalidations_;
      g_obs_slot_invalidations.add();
    }
  }
}

void TransientStepper::stamp_step_diagonal(double* diag, std::size_t stride,
                                           double omega, double dt) const {
  model_->stamp_diagonal({diag, stride}, omega, cell_current_, taylor_);
  const la::Vector& cap = model_->capacitances();
  for (std::size_t i = 0; i < n_; ++i) diag[i * stride] += cap[i] / dt;
}

bool TransientStepper::refactor(FactorSlot& slot, double omega, double dt) {
  slot.used = false;
  try {
    // Cholesky on the base lower band plus this step's diagonal, stamped in
    // place; a non-positive pivot rebuilds the full band (the mirrored base
    // with the same stamps) for the pivoted LU — the assembled step matrix,
    // bit for bit, on either path.
    slot.factor.refactorize(
        n_, bw_,
        [&](double* lower) {
          std::copy(base_lower_.begin(), base_lower_.end(), lower);
          stamp_step_diagonal(lower, bw_ + 1, omega, dt);
        },
        [&] {
          la::BandedMatrix full =
              la::symmetric_from_lower(n_, bw_, base_lower_.data());
          stamp_step_diagonal(full.col_ptr(0) + 2 * bw_, full.storage_rows(),
                              omega, dt);
          return full;
        });
  } catch (const std::runtime_error&) {
    return false;  // singular step matrix: a runaway verdict
  }
  ++n_factorizations_;
  if (slot.factor.kind() == la::BandedFactor::Kind::kLu) ++n_lu_fallbacks_;
  return true;
}

void TransientStepper::assemble_rhs(double omega,
                                    const la::Vector& cell_dynamic_power,
                                    double dt) {
  rhs_ = base_rhs_;
  model_->stamp_rhs(rhs_, omega, cell_current_, cell_dynamic_power, taylor_);
  const la::Vector& cap = model_->capacitances();
  for (std::size_t i = 0; i < n_; ++i) {
    const double c_dt = cap[i] / dt;
    rhs_[i] += c_dt * temps_[i];
  }
}

TransientStepper::FactorSlot* TransientStepper::find_slot(double omega,
                                                          double current,
                                                          double dt) {
  const std::uint64_t kd = bits_of(dt);
  const std::uint64_t ko = bits_of(omega);
  const std::uint64_t kc = bits_of(current);
  for (FactorSlot& slot : slots_) {
    if (slot.used && slot.key_dt == kd && slot.key_omega == ko &&
        slot.key_current == kc && slot.key_slopes == key_slopes_) {
      return &slot;
    }
  }
  return nullptr;
}

TransientStepper::FactorSlot& TransientStepper::lru_slot() {
  FactorSlot* victim = &slots_.front();
  for (FactorSlot& slot : slots_) {
    if (!slot.used) return slot;
    if (slot.stamp < victim->stamp) victim = &slot;
  }
  return *victim;
}

bool TransientStepper::verdict(double& max_chip_out) {
  const NodeLayout& layout = model_->layout();
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    chip_next_[cell] = next_[layout.node(Slab::kChip, cell)];
  }
  double m = chip_next_.front();
  for (const double v : chip_next_) m = std::max(m, v);
  max_chip_out = m;
  if (config_.runaway_check == RunawayCheck::kChipOnly) {
    return std::isfinite(m) && m <= config_.runaway_temperature;
  }
  for (const double t : next_) {
    if (!std::isfinite(t) || t > config_.runaway_temperature) return false;
  }
  return true;
}

void TransientStepper::commit(double verdict_max_chip) {
  std::swap(temps_, next_);
  std::swap(chip_, chip_next_);
  max_chip_ = verdict_max_chip;
  ++n_steps_;
}

bool TransientStepper::step(const ControlSetting& setting,
                            const la::Vector& cell_dynamic_power, double dt) {
  if (cell_dynamic_power.size() != cells_) {
    throw std::invalid_argument("TransientStepper::step: per-cell arity");
  }
  // ThermalModel::assemble's range check, made on every step so that
  // out-of-range controller outputs fail whether or not the factor is
  // cached.
  if (setting.current < 0.0 ||
      setting.current > model_->config().tec.max_current * (1.0 + 1e-9)) {
    throw std::invalid_argument("TransientStepper::step: current out of range");
  }
  if (!(dt > 0.0)) {
    throw std::invalid_argument("TransientStepper::step: dt must be > 0");
  }

  linearize_leakage();
  std::fill(cell_current_.begin(), cell_current_.end(), setting.current);

  FactorSlot* slot = find_slot(setting.omega, setting.current, dt);
  const bool hit = slot != nullptr;
  if (hit) {
    ++n_factor_hits_;
    slot->stamp = ++lru_stamp_;
  } else {
    slot = &lru_slot();
    if (!refactor(*slot, setting.omega, dt)) return false;
    slot->key_dt = bits_of(dt);
    slot->key_omega = bits_of(setting.omega);
    slot->key_current = bits_of(setting.current);
    slot->key_slopes = key_slopes_;
    slot->used = true;
    slot->stamp = ++lru_stamp_;
  }

  assemble_rhs(setting.omega, cell_dynamic_power, dt);
  next_ = rhs_;
  slot->factor.solve_in_place(next_);
  if (hit && g_fault_factor_corrupt.should_fail()) {
    next_[0] = std::numeric_limits<double>::quiet_NaN();
  }

  double m = 0.0;
  bool ok = verdict(m);
  if (!ok && hit) {
    // Self-heal: a cached factor that yields a non-physical state gets one
    // fresh rebuild before the verdict stands (the SolveEngine discipline).
    // A genuine runaway re-fails identically — a fresh factor of the same
    // matrix is bit-identical — so exactness is preserved.
    ++n_self_heals_;
    if (!refactor(*slot, setting.omega, dt)) return false;
    slot->used = true;
    slot->stamp = ++lru_stamp_;
    next_ = rhs_;
    slot->factor.solve_in_place(next_);
    ok = verdict(m);
  }
  if (!ok) return false;

  commit(m);
  return true;
}

double TransientStepper::leakage_power() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < cells_; ++i) {
    acc += leakage_[i].evaluate(chip_[i]);
  }
  return acc;
}

double TransientStepper::tec_power(double current) const {
  const tec::TecArray* tec = model_->tec_array();
  if (tec == nullptr || current == 0.0) return 0.0;
  const NodeLayout& layout = model_->layout();
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    cold_[cell] = temps_[layout.node(Slab::kTecAbs, cell)];
    hot_[cell] = temps_[layout.node(Slab::kTecRej, cell)];
  }
  return tec->electrical_power(cold_, hot_, current);
}

TransientSample TransientStepper::sample(double time,
                                         const ControlSetting& setting) const {
  TransientSample s;
  s.time = time;
  s.max_chip_temperature = max_chip_;
  s.tec_power = tec_power(setting.current);
  s.fan_power = model_->config().fan.power(setting.omega);
  s.leakage_power = leakage_power();
  return s;
}

// ---------------------------------------------------------------------------
// TransientEngine
// ---------------------------------------------------------------------------

/// Checkout pool of steppers plus the engine-level stat accumulators. Warm
/// factor caches persist across runs; since every factor is a pure function
/// of its exact-bits key, which stepper serves which run never affects
/// results.
class TransientEngine::StepperPool {
 public:
  StepperPool(const ThermalModel& model,
              std::vector<power::ExponentialTerm> leakage)
      : model_(&model), leakage_(std::move(leakage)) {}

  [[nodiscard]] std::unique_ptr<TransientStepper> checkout() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<TransientStepper> s = std::move(idle_.back());
        idle_.pop_back();
        return s;
      }
    }
    return std::make_unique<TransientStepper>(*model_, leakage_);
  }

  void checkin(std::unique_ptr<TransientStepper> stepper) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(stepper));
  }

  std::atomic<std::size_t> runs{0};
  std::atomic<std::size_t> steps{0};
  std::atomic<std::size_t> factorizations{0};
  std::atomic<std::size_t> factor_hits{0};
  std::atomic<std::size_t> self_heals{0};
  std::atomic<std::size_t> slot_invalidations{0};
  std::atomic<std::size_t> lu_fallbacks{0};

 private:
  const ThermalModel* model_;
  std::vector<power::ExponentialTerm> leakage_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TransientStepper>> idle_;
};

namespace {

/// One run on a stepper: a control call and a step per planned step, a
/// sample every record_stride steps and at the horizon (the clamped last
/// step records the true duration), early exit on runaway.
[[nodiscard]] TransientResult run_on(TransientStepper& stepper,
                                     const FeedbackControl& control,
                                     const la::Vector& initial_temperatures,
                                     const la::Vector& dynamic,
                                     const TransientOptions& options) {
  const double dt = options.time_step;
  const StepPlan plan = plan_steps(options.duration, dt);

  stepper.configure(options.runaway_temperature,
                    options.relinearization_threshold,
                    RunawayCheck::kAllNodes);
  stepper.reset(initial_temperatures);

  TransientResult result;
  result.samples.reserve(plan.steps / options.record_stride + 2);
  {
    const ControlSetting initial =
        control(0.0, stepper.max_chip_temperature());
    result.samples.push_back(stepper.sample(0.0, initial));
  }

  for (std::size_t step = 0; step < plan.steps; ++step) {
    const double time = static_cast<double>(step) * dt;
    const double step_dt = step + 1 == plan.steps ? plan.last_step : dt;
    const ControlSetting setting =
        control(time, stepper.max_chip_temperature());
    if (!stepper.step(setting, dynamic, step_dt)) {
      result.runaway = true;
      result.steps = step;
      return result;
    }
    if ((step + 1) % options.record_stride == 0 || step + 1 == plan.steps) {
      result.samples.push_back(stepper.sample(
          step + 1 == plan.steps ? options.duration : time + dt, setting));
    }
  }

  result.final_temperatures = stepper.temperatures();
  result.steps = plan.steps;
  return result;
}

}  // namespace

TransientEngine::TransientEngine(const ThermalModel& model,
                                 la::Vector cell_dynamic_power,
                                 std::vector<power::ExponentialTerm>
                                     cell_leakage,
                                 TransientOptions options)
    : TransientEngine(model, std::move(cell_dynamic_power),
                      std::move(cell_leakage), options, Config()) {}

TransientEngine::TransientEngine(const ThermalModel& model,
                                 la::Vector cell_dynamic_power,
                                 std::vector<power::ExponentialTerm>
                                     cell_leakage,
                                 TransientOptions options, Config config)
    : model_(&model),
      dynamic_(std::move(cell_dynamic_power)),
      leakage_(std::move(cell_leakage)),
      options_(options),
      config_(config) {
  const std::size_t cells = model.layout().cells_per_layer();
  if (dynamic_.size() != cells || leakage_.size() != cells) {
    throw std::invalid_argument("TransientEngine: per-cell arity mismatch");
  }
  validate_options(options_);
  steppers_ = std::make_unique<StepperPool>(model, leakage_);
}

TransientEngine::~TransientEngine() = default;

la::Vector TransientEngine::ambient_state() const {
  return la::Vector(model_->layout().node_count(), model_->config().ambient);
}

TransientResult TransientEngine::run(
    const ControlSchedule& control,
    const la::Vector& initial_temperatures) const {
  return run(control, initial_temperatures, options_);
}

TransientResult TransientEngine::run(const ControlSchedule& control,
                                     const la::Vector& initial_temperatures,
                                     const TransientOptions& options) const {
  return run_closed_loop(
      [&control](double time, double) { return control(time); },
      initial_temperatures, options);
}

TransientResult TransientEngine::run_closed_loop(
    const FeedbackControl& control,
    const la::Vector& initial_temperatures) const {
  return run_impl(control, initial_temperatures, options_);
}

TransientResult TransientEngine::run_closed_loop(
    const FeedbackControl& control, const la::Vector& initial_temperatures,
    const TransientOptions& options) const {
  return run_impl(control, initial_temperatures, options);
}

TransientResult TransientEngine::run_impl(
    const FeedbackControl& control, const la::Vector& initial_temperatures,
    const TransientOptions& options) const {
  OBS_SPAN("transient_engine.run");
  validate_options(options);
  if (initial_temperatures.size() != model_->layout().node_count()) {
    throw std::invalid_argument("TransientEngine::run: state arity mismatch");
  }

  std::unique_ptr<TransientStepper> stepper = steppers_->checkout();
  const std::size_t steps0 = stepper->steps();
  const std::size_t fact0 = stepper->factorizations();
  const std::size_t hits0 = stepper->factor_hits();
  const std::size_t heals0 = stepper->self_heals();
  const std::size_t invals0 = stepper->slot_invalidations();
  const std::size_t lu0 = stepper->lu_fallbacks();
  const util::Stopwatch watch;

  const auto finish = [&]() {
    const std::size_t steps = stepper->steps() - steps0;
    const std::size_t facts = stepper->factorizations() - fact0;
    const std::size_t hits = stepper->factor_hits() - hits0;
    const std::size_t heals = stepper->self_heals() - heals0;
    const std::size_t invals = stepper->slot_invalidations() - invals0;
    const std::size_t lu = stepper->lu_fallbacks() - lu0;
    steppers_->runs.fetch_add(1, std::memory_order_relaxed);
    steppers_->steps.fetch_add(steps, std::memory_order_relaxed);
    steppers_->factorizations.fetch_add(facts, std::memory_order_relaxed);
    steppers_->factor_hits.fetch_add(hits, std::memory_order_relaxed);
    steppers_->self_heals.fetch_add(heals, std::memory_order_relaxed);
    steppers_->slot_invalidations.fetch_add(invals, std::memory_order_relaxed);
    steppers_->lu_fallbacks.fetch_add(lu, std::memory_order_relaxed);
    g_obs_runs.add();
    g_obs_steps.add(steps);
    g_obs_factorizations.add(facts);
    g_obs_factor_hits.add(hits);
    g_obs_self_heals.add(heals);
    g_obs_lu_fallbacks.add(lu);
    if (obs::enabled() && steps > 0) {
      const double elapsed_s = watch.elapsed_ms() / 1e3;
      if (elapsed_s > 0.0) {
        g_obs_steps_per_s.set(static_cast<double>(steps) / elapsed_s);
      }
    }
    steppers_->checkin(std::move(stepper));
  };

  TransientResult result;
  try {
    result = run_on(*stepper, control, initial_temperatures, dynamic_,
                    options);
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return result;
}

std::vector<TransientResult> TransientEngine::run_batch(
    const std::vector<TransientJob>& jobs) const {
  OBS_SPAN("transient_engine.batch");
  g_obs_batches.add();
  std::vector<TransientResult> results(jobs.size());
  if (jobs.empty()) return results;
  if (jobs.size() == 1) {
    results[0] = run_impl(jobs[0].control, jobs[0].initial_temperatures,
                          jobs[0].options);
    return results;
  }

  util::ThreadPool* pool = nullptr;
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_) {
      pool_ = std::make_unique<util::ThreadPool>(config_.threads);
    }
    pool = pool_.get();
  }
  pool->parallel_for(jobs.size(), [&](std::size_t i) {
    results[i] = run_impl(jobs[i].control, jobs[i].initial_temperatures,
                          jobs[i].options);
  });
  return results;
}

TransientEngineStats TransientEngine::stats() const {
  TransientEngineStats s;
  s.runs = steppers_->runs.load(std::memory_order_relaxed);
  s.steps = steppers_->steps.load(std::memory_order_relaxed);
  s.factorizations =
      steppers_->factorizations.load(std::memory_order_relaxed);
  s.factor_hits = steppers_->factor_hits.load(std::memory_order_relaxed);
  s.self_heals = steppers_->self_heals.load(std::memory_order_relaxed);
  s.slot_invalidations =
      steppers_->slot_invalidations.load(std::memory_order_relaxed);
  s.lu_fallbacks = steppers_->lu_fallbacks.load(std::memory_order_relaxed);
  return s;
}

void TransientEngine::reset_stats() const {
  steppers_->runs.store(0, std::memory_order_relaxed);
  steppers_->steps.store(0, std::memory_order_relaxed);
  steppers_->factorizations.store(0, std::memory_order_relaxed);
  steppers_->factor_hits.store(0, std::memory_order_relaxed);
  steppers_->self_heals.store(0, std::memory_order_relaxed);
  steppers_->slot_invalidations.store(0, std::memory_order_relaxed);
  steppers_->lu_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace oftec::thermal
