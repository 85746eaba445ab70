#include "thermal/transient_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "la/banded_factor.h"
#include "util/obs.h"
#include "util/stopwatch.h"

namespace oftec::thermal {

namespace {

const obs::Counter g_obs_runs = obs::counter("transient_engine.runs");
const obs::Counter g_obs_steps = obs::counter("transient_engine.steps");
const obs::Counter g_obs_cg_iterations =
    obs::counter("transient_engine.cg_iterations");
const obs::Counter g_obs_factorizations =
    obs::counter("transient_engine.factorizations");
const obs::Counter g_obs_lu_fallbacks =
    obs::counter("transient_engine.lu_fallbacks");
const obs::Counter g_obs_batches = obs::counter("transient_engine.batches");
const obs::Gauge g_obs_steps_per_s =
    obs::gauge("transient_engine.steps_per_s");

void validate_options(const TransientOptions& options) {
  // duration == 0 is a valid no-op horizon: zero steps, state unchanged.
  if (options.time_step <= 0.0 || options.duration < 0.0) {
    throw std::invalid_argument("TransientEngine: bad time parameters");
  }
  if (options.record_stride == 0) {
    throw std::invalid_argument("TransientEngine: record_stride must be >= 1");
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
      base_(model.static_csr_system()),
      system_(base_) {
  if (leakage_.size() != cells_) {
    throw std::invalid_argument("TransientStepper: per-cell arity mismatch");
  }
  // static_csr_system() stores a diagonal on every node.
  diag_pos_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    diag_pos_[i] = base_.matrix.position(i, i);
  }
  const NodeLayout& layout = model.layout();
  std::vector<std::size_t> slab_first(kSlabCount);
  for (std::size_t k = 0; k < kSlabCount; ++k) {
    slab_first[k] = layout.node(static_cast<Slab>(k), 0);
  }
  symbolic_ = la::ColumnBlockSymbolic::analyze(base_.matrix, cells_,
                                               std::move(slab_first));

  taylor_.resize(cells_);
  cell_current_.assign(cells_, 0.0);
  next_.assign(n_, 0.0);
  chip_next_.assign(cells_, 0.0);
  cold_.assign(cells_, 0.0);
  hot_.assign(cells_, 0.0);

  reset(la::Vector(n_, model.config().ambient));
}

void TransientStepper::configure(double runaway_temperature,
                                 RunawayCheck check) {
  config_.runaway_temperature = runaway_temperature;
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
}

bool TransientStepper::solve_cg_step() {
  const la::SparseMatrix& a = system_.matrix;
  if (!column_.factor(symbolic_, a)) return false;
  a.residual_into(system_.rhs, temps_, residual_);
  la::IterativeOptions opts;
  opts.tolerance = kStepTolerance;
  opts.workspace = &cg_;
  opts.preconditioner = &column_;
  const la::IterativeResult delta = la::solve_cg(a, residual_, opts);
  n_cg_iterations_ += delta.iterations;
  if (!delta.converged) return false;
  for (std::size_t i = 0; i < n_; ++i) next_[i] = temps_[i] + delta.x[i];
  return true;
}

bool TransientStepper::solve_banded_step(const ControlSetting& setting,
                                         const la::Vector& cell_dynamic_power,
                                         double dt) {
  AssembledSystem sys = model_->assemble(setting.omega, cell_current_,
                                         cell_dynamic_power, taylor_);
  const la::Vector& cap = model_->capacitances();
  for (std::size_t i = 0; i < n_; ++i) {
    const double c_dt = cap[i] / dt;
    sys.matrix.add(i, i, c_dt);
    sys.rhs[i] += c_dt * temps_[i];
  }
  try {
    const la::BandedFactor factor(sys.matrix);
    ++n_factorizations_;
    if (factor.kind() == la::BandedFactor::Kind::kLu) ++n_lu_fallbacks_;
    next_ = factor.solve(sys.rhs);
  } catch (const std::runtime_error&) {
    return false;  // singular step matrix: a runaway verdict
  }
  return true;
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

bool TransientStepper::step(const ControlSetting& setting,
                            const la::Vector& cell_dynamic_power, double dt) {
  if (cell_dynamic_power.size() != cells_) {
    throw std::invalid_argument("TransientStepper::step: per-cell arity");
  }
  // ThermalModel::assemble's range check.
  if (setting.current < 0.0 ||
      setting.current > model_->config().tec.max_current * (1.0 + 1e-9)) {
    throw std::invalid_argument("TransientStepper::step: current out of range");
  }
  if (!(dt > 0.0)) {
    throw std::invalid_argument("TransientStepper::step: dt must be > 0");
  }

  for (std::size_t i = 0; i < cells_; ++i) {
    taylor_[i] = power::tangent_linearize(leakage_[i], chip_[i]);
  }
  std::fill(cell_current_.begin(), cell_current_.end(), setting.current);

  // (C/dt + M)·Tₙ₊₁ = C/dt·Tₙ + rhs on the static pattern: the model's
  // stamps in ThermalModel::assemble's order, then C/dt.
  std::vector<double>& values = system_.matrix.mutable_values();
  values = base_.matrix.values();
  model_->stamp_diagonal({.data = values.data(), .positions = diag_pos_.data()},
                         setting.omega, cell_current_, taylor_);
  system_.rhs = base_.rhs;
  model_->stamp_rhs(system_.rhs, setting.omega, cell_current_,
                    cell_dynamic_power, taylor_);
  const la::Vector& cap = model_->capacitances();
  for (std::size_t i = 0; i < n_; ++i) {
    const double c_dt = cap[i] / dt;
    values[diag_pos_[i]] += c_dt;
    system_.rhs[i] += c_dt * temps_[i];
  }

  if (!solve_cg_step() &&
      !solve_banded_step(setting, cell_dynamic_power, dt)) {
    return false;
  }
  double m = 0.0;
  if (!verdict(m)) return false;
  std::swap(temps_, next_);
  std::swap(chip_, chip_next_);
  max_chip_ = m;
  ++n_steps_;
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

/// Checkout pool of steppers plus the engine-level stat accumulators. A step
/// carries nothing over from earlier steps or runs but the state it is
/// given, so which stepper serves which run never affects results.
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
  std::atomic<std::size_t> cg_iterations{0};
  std::atomic<std::size_t> factorizations{0};
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

  stepper.configure(options.runaway_temperature, RunawayCheck::kAllNodes);
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
  const std::size_t cg0 = stepper->cg_iterations();
  const std::size_t fact0 = stepper->factorizations();
  const std::size_t lu0 = stepper->lu_fallbacks();
  const util::Stopwatch watch;

  const auto finish = [&]() {
    const std::size_t steps = stepper->steps() - steps0;
    const std::size_t cg = stepper->cg_iterations() - cg0;
    const std::size_t facts = stepper->factorizations() - fact0;
    const std::size_t lu = stepper->lu_fallbacks() - lu0;
    steppers_->runs.fetch_add(1, std::memory_order_relaxed);
    steppers_->steps.fetch_add(steps, std::memory_order_relaxed);
    steppers_->cg_iterations.fetch_add(cg, std::memory_order_relaxed);
    steppers_->factorizations.fetch_add(facts, std::memory_order_relaxed);
    steppers_->lu_fallbacks.fetch_add(lu, std::memory_order_relaxed);
    g_obs_runs.add();
    g_obs_steps.add(steps);
    g_obs_cg_iterations.add(cg);
    g_obs_factorizations.add(facts);
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
  s.cg_iterations = steppers_->cg_iterations.load(std::memory_order_relaxed);
  s.factorizations =
      steppers_->factorizations.load(std::memory_order_relaxed);
  s.lu_fallbacks = steppers_->lu_fallbacks.load(std::memory_order_relaxed);
  return s;
}

void TransientEngine::reset_stats() const {
  steppers_->runs.store(0, std::memory_order_relaxed);
  steppers_->steps.store(0, std::memory_order_relaxed);
  steppers_->cg_iterations.store(0, std::memory_order_relaxed);
  steppers_->factorizations.store(0, std::memory_order_relaxed);
  steppers_->lu_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace oftec::thermal
