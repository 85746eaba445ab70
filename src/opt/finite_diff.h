// Finite-difference derivatives robust to +inf function values and bounds.
//
// The OFTEC objective is only available through the thermal simulator
// (paper Sec. 5.2: "the objective function 𝒫 can only be determined
// numerically"). SQP takes its gradients from Problem::gradients, which the
// thermal problems compute exactly; these differences serve the
// interior-point and trust-region comparators, and test problems that have
// no analytic gradient. Steps are scaled per coordinate, kept inside the
// box, and fall back to one-sided differences when the opposite sample
// lands in the runaway region.
#pragma once

#include <functional>

#include "la/dense_matrix.h"
#include "la/vector_ops.h"
#include "opt/problem.h"

namespace oftec::opt {

using ScalarFn = std::function<double(const la::Vector&)>;

struct FiniteDiffOptions {
  /// Relative step: h_i = step_rel · max(|x_i|, scale_floor_i).
  double step_rel = 1e-4;
  /// Per-coordinate floor for the step scale; defaults to the box width.
  la::Vector scale_floor;
};

/// Central-difference gradient with one-sided fallback near bounds or +inf
/// samples. Returns +inf entries when no finite difference is computable.
[[nodiscard]] la::Vector gradient(const ScalarFn& f, const la::Vector& x,
                                  const Bounds& bounds,
                                  const FiniteDiffOptions& options,
                                  std::size_t* eval_count = nullptr);

/// Dense finite-difference Hessian via gradient differencing (forward).
/// Symmetrized. Used by the interior-point and trust-region comparators.
[[nodiscard]] la::DenseMatrix hessian(const ScalarFn& f, const la::Vector& x,
                                      const Bounds& bounds,
                                      const FiniteDiffOptions& options,
                                      std::size_t* eval_count = nullptr);

}  // namespace oftec::opt
