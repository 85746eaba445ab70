// Tier-2: observed order of the transient step under the default leakage
// slope hold, on one `dtm_lut` segment per MiBench profile (seed 1, 10×10
// model, LUT setting held for 0.5 s).
//
// Holding the slope while the leakage itself is re-evaluated every step
// makes the step a W-method — linearly implicit Euler with an approximate
// Jacobian — which stays first order for any held slope. So, against a
// fine-step reference:
//   * the mean per-sample max-chip error must fall by ≥ 1.7× per halving of
//     dt from 10 to 5 to 2.5 ms (backward Euler's asymptotic ratio is 2);
//   * the mean deviation from per-step tangents (tolerance 0) at the same dt
//     must fall by ≥ 1.5× per halving. A hold that froze the whole tangent
//     — value and expansion point as well as slope — keeps an O(θ²) bias
//     that does not shrink with dt and fails here.
// The reference is Richardson extrapolation 2·T(dt/2) − T(dt) of two runs
// at 0.1 and 0.05 ms. It takes the default hold too, which keeps its 15 000
// steps per segment cheap: the hold's deviation shrinks with dt (the second
// assertion), so at 0.05 ms it is far below the errors compared here, and
// the extrapolation cancels its first-order part.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "dtm_pool.h"

namespace oftec::core {
namespace {

using Samples = std::vector<std::vector<double>>;  // [segment][sample]

Samples replay_all(const testing::DtmPool& pool, double dt, double tolerance) {
  Samples out;
  for (const testing::DtmSegment& segment : pool.segments) {
    const testing::DtmReplay r = testing::replay(pool, segment, dt, tolerance);
    EXPECT_FALSE(r.runaway) << "dt " << dt << ", tolerance " << tolerance;
    out.push_back(r.max_chip);
  }
  return out;
}

double mean_abs_diff(const Samples& a, const Samples& b) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].size(), b[k].size());
    for (std::size_t i = 0; i < a[k].size() && i < b[k].size(); ++i) {
      sum += std::abs(a[k][i] - b[k][i]);
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

TEST(TransientOrder, DefaultSlopeHoldStaysFirstOrder) {
  const testing::DtmPool pool = testing::make_dtm_pool(1, 1);
  ASSERT_EQ(pool.segments.size(), 8u);
  const double tolerance = thermal::kDefaultRelinearizationThreshold;

  const Samples coarse = replay_all(pool, 0.1e-3, tolerance);
  Samples reference = replay_all(pool, 0.05e-3, tolerance);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    for (std::size_t i = 0; i < reference[k].size(); ++i) {
      reference[k][i] = 2.0 * reference[k][i] - coarse[k][i];
    }
  }

  std::vector<double> error;
  std::vector<double> deviation;
  for (const double dt : {10e-3, 5e-3, 2.5e-3}) {
    const Samples held = replay_all(pool, dt, tolerance);
    const Samples exact = replay_all(pool, dt, 0.0);
    error.push_back(mean_abs_diff(held, reference));
    deviation.push_back(mean_abs_diff(held, exact));
  }
  for (std::size_t h = 0; h + 1 < error.size(); ++h) {
    SCOPED_TRACE("halving " + std::to_string(h + 1));
    EXPECT_GE(error[h] / error[h + 1], 1.7)
        << error[h] << " K -> " << error[h + 1] << " K";
    EXPECT_GE(deviation[h] / deviation[h + 1], 1.5)
        << deviation[h] << " K -> " << deviation[h + 1] << " K";
  }
}

}  // namespace
}  // namespace oftec::core
