#include "probes.h"

#include <utility>

#include "common.h"
#include "la/banded_lu.h"
#include "la/iterative.h"
#include "la/split_cholesky.h"
#include "thermal/solve_engine.h"

namespace perfbench {

namespace la = oftec::la;
namespace power = oftec::power;
namespace thermal = oftec::thermal;

std::vector<power::TaylorCoefficients> linearize_at(
    const std::vector<power::ExponentialTerm>& leakage,
    const la::Vector& chip_temperatures) {
  std::vector<power::TaylorCoefficients> taylor;
  taylor.reserve(leakage.size());
  for (std::size_t c = 0; c < leakage.size(); ++c) {
    taylor.push_back(power::tangent_linearize(leakage[c], chip_temperatures[c]));
  }
  return taylor;
}

CgProbe probe_cg(const oftec::core::CoolingSystem& system, double omega,
                 double current, const la::Vector& chip_temperatures) {
  const thermal::ThermalModel& model = system.thermal_model();
  const thermal::IncrementalAssembler assembler(model,
                                                system.cell_dynamic_power());
  const la::Vector cell_current(model.layout().cells_per_layer(), current);
  thermal::CsrSystem csr;
  assembler.assemble_csr(omega, cell_current,
                         linearize_at(system.cell_leakage(), chip_temperatures),
                         csr);
  la::IterativeOptions options;
  options.tolerance = system.solver().options().iterative_tolerance;
  options.max_iterations = 4 * csr.rhs.size();
  const Clock::time_point t0 = Clock::now();
  const la::IterativeResult result = la::solve_cg(csr.matrix, csr.rhs, options);
  return {ms_since(t0), result.iterations};
}

namespace {

/// dgbtf2 with partial pivoting: per column, kl multipliers and a rank-1
/// update of a kl × (kl + ku) block (the upper band fills to kl + ku).
double lu_mflop(const la::BandedMatrix& a) {
  const auto n = static_cast<double>(a.size());
  const auto kl = static_cast<double>(a.lower_bandwidth());
  const auto ku = static_cast<double>(a.upper_bandwidth());
  return n * (kl + 2.0 * kl * (kl + ku)) * 1e-6;
}

/// Banded Cholesky: per column, one square root, k divisions and a
/// symmetric rank-1 update of the k × k lower triangle.
double cholesky_mflop(const la::BandedMatrix& a) {
  const auto n = static_cast<double>(a.size());
  const auto k = static_cast<double>(a.lower_bandwidth());
  return n * (1.0 + k + k * (k + 1.0)) * 1e-6;
}

}  // namespace

FactorProbe probe_step_lu(const thermal::ThermalModel& model,
                          const la::Vector& cell_power,
                          const std::vector<power::ExponentialTerm>& leakage,
                          double omega, double current,
                          const la::Vector& chip_temperatures, double dt) {
  thermal::AssembledSystem sys = model.assemble(
      omega, current, cell_power, linearize_at(leakage, chip_temperatures));
  const la::Vector& capacitance = model.capacitances();
  for (std::size_t i = 0; i < capacitance.size(); ++i) {
    sys.matrix.add(i, i, capacitance[i] / dt);
  }
  const double mflop = lu_mflop(sys.matrix);
  const Clock::time_point t0 = Clock::now();
  const la::BandedLu lu(std::move(sys.matrix));
  const double ms = ms_since(t0);
  if (!lu.valid()) return {0.0, mflop};
  return {ms, mflop};
}

FactorProbe probe_steady_cholesky(const oftec::core::CoolingSystem& system,
                                  double omega, double current,
                                  const la::Vector& chip_temperatures) {
  const thermal::AssembledSystem sys = system.thermal_model().assemble(
      omega, current, system.cell_dynamic_power(),
      linearize_at(system.cell_leakage(), chip_temperatures));
  const auto symbolic = std::make_shared<const la::BandedCholeskySymbolic>(
      la::BandedCholeskySymbolic::analyze(sys.matrix));
  la::BandedCholeskyNumeric numeric(symbolic);
  const Clock::time_point t0 = Clock::now();
  numeric.refactorize(sys.matrix);
  return {ms_since(t0), cholesky_mflop(sys.matrix)};
}

}  // namespace perfbench
