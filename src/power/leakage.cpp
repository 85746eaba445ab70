#include "power/leakage.h"

#include <cmath>
#include <stdexcept>

#include "la/regression.h"

namespace oftec::power {

double ExponentialTerm::evaluate(double temperature) const noexcept {
  return p0 * std::exp(beta * (temperature - t0));
}

double ExponentialTerm::derivative(double temperature) const noexcept {
  return beta * evaluate(temperature);
}

TaylorCoefficients chord_linearize(const ExponentialTerm& term, double t_ref,
                                   double t_lo, double t_hi,
                                   std::size_t samples) {
  if (samples < 2 || t_hi <= t_lo) {
    throw std::invalid_argument("chord_linearize: bad sample range");
  }
  la::Vector ts(samples), ps(samples);
  const double step = (t_hi - t_lo) / static_cast<double>(samples - 1);
  for (std::size_t i = 0; i < samples; ++i) {
    ts[i] = t_lo + step * static_cast<double>(i);
    ps[i] = term.evaluate(ts[i]);
  }
  const la::LinearFit fit = la::fit_line(ts, ps);
  TaylorCoefficients coeffs;
  coeffs.a = fit.slope;
  coeffs.b = fit.slope * t_ref + fit.intercept;
  coeffs.t_ref = t_ref;
  return coeffs;
}

TaylorCoefficients tangent_linearize(const ExponentialTerm& term,
                                     double t_ref) noexcept {
  TaylorCoefficients coeffs;
  const double p = term.evaluate(t_ref);
  coeffs.a = term.beta * p;  // derivative(t_ref), without a second exp
  coeffs.b = p;
  coeffs.t_ref = t_ref;
  return coeffs;
}

LeakageModel::LeakageModel(const floorplan::Floorplan& fp,
                           std::vector<double> p0, double beta, double t0)
    : fp_(&fp), p0_(std::move(p0)), beta_(beta), t0_(t0) {
  if (p0_.size() != fp.block_count()) {
    throw std::invalid_argument("LeakageModel: p0 arity mismatch");
  }
  if (beta_ <= 0.0) {
    throw std::invalid_argument("LeakageModel: beta must be positive");
  }
  for (const double v : p0_) {
    if (v < 0.0) {
      throw std::invalid_argument("LeakageModel: negative block leakage");
    }
  }
}

double LeakageModel::block_leakage(std::size_t block, double t) const {
  if (block >= p0_.size()) {
    throw std::out_of_range("LeakageModel::block_leakage");
  }
  return p0_[block] * std::exp(beta_ * (t - t0_));
}

double LeakageModel::total_leakage(double t) const {
  double acc = 0.0;
  for (std::size_t b = 0; b < p0_.size(); ++b) acc += block_leakage(b, t);
  return acc;
}

TaylorCoefficients LeakageModel::linearize_block(std::size_t block,
                                                 double t_ref, double t_lo,
                                                 double t_hi,
                                                 std::size_t samples) const {
  if (samples < 2 || t_hi <= t_lo) {
    throw std::invalid_argument("LeakageModel::linearize_block: bad range");
  }
  la::Vector ts(samples), ps(samples);
  const double step = (t_hi - t_lo) / static_cast<double>(samples - 1);
  for (std::size_t i = 0; i < samples; ++i) {
    ts[i] = t_lo + step * static_cast<double>(i);
    ps[i] = block_leakage(block, ts[i]);
  }
  const la::LinearFit fit = la::fit_line(ts, ps);
  // p ≈ slope·T + intercept  →  a = slope, b = slope·Tref + intercept.
  TaylorCoefficients coeffs;
  coeffs.a = fit.slope;
  coeffs.b = fit.slope * t_ref + fit.intercept;
  coeffs.t_ref = t_ref;
  return coeffs;
}

std::vector<TaylorCoefficients> LeakageModel::linearize_all(
    double t_ref, double t_lo, double t_hi, std::size_t samples) const {
  std::vector<TaylorCoefficients> out;
  out.reserve(p0_.size());
  for (std::size_t b = 0; b < p0_.size(); ++b) {
    out.push_back(linearize_block(b, t_ref, t_lo, t_hi, samples));
  }
  return out;
}

}  // namespace oftec::power
