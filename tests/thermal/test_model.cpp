#include "thermal/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "floorplan/ev6.h"
#include "la/banded_lu.h"
#include "power/leakage.h"
#include "power/mcpat_like.h"
#include "workload/benchmarks.h"

namespace oftec::thermal {
namespace {

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::make_ev6_floorplan();
  return f;
}

ThermalModel make_model(std::size_t n = 6, bool with_tec = true) {
  auto cfg = package::PackageConfig::paper_default();
  if (!with_tec) cfg = cfg.without_tecs();
  return ThermalModel(std::move(cfg), fp(), n, n);
}

std::vector<power::TaylorCoefficients> zero_taylor(std::size_t cells) {
  return std::vector<power::TaylorCoefficients>(cells);
}

TEST(ThermalModel, RejectsMismatchedFloorplan) {
  auto cfg = package::PackageConfig::paper_default();
  const floorplan::Floorplan small = floorplan::make_ev6_floorplan(10e-3);
  EXPECT_THROW(ThermalModel(cfg, small, 4, 4), std::invalid_argument);
}

TEST(ThermalModel, TecArrayPresenceFollowsConfig) {
  EXPECT_NE(make_model(4, true).tec_array(), nullptr);
  EXPECT_EQ(make_model(4, false).tec_array(), nullptr);
}

TEST(ThermalModel, PassiveMatrixIsSymmetric) {
  // Without TEC current and without leakage slope, the assembled matrix is
  // the pure conductance matrix G of Eq. (18) — symmetric by reciprocity.
  const ThermalModel m = make_model(5);
  const std::size_t cells = m.layout().cells_per_layer();
  const auto sys = m.assemble(200.0, 0.0, la::Vector(cells, 0.1),
                              zero_taylor(cells));
  const std::size_t n = m.layout().node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j_hi = std::min(n - 1, i + m.layout().bandwidth());
    for (std::size_t j = i; j <= j_hi; ++j) {
      EXPECT_NEAR(sys.matrix.get(i, j), sys.matrix.get(j, i), 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(ThermalModel, RowSumsEqualAmbientCouplings) {
  // Each row of G sums to the node's conductance to ambient (all internal
  // edges cancel) — energy can only leave through ambient couplings.
  const ThermalModel m = make_model(4);
  const std::size_t cells = m.layout().cells_per_layer();
  const auto sys = m.assemble(300.0, 0.0, la::Vector(cells, 0.0),
                              zero_taylor(cells));
  const std::size_t n = m.layout().node_count();
  const la::Vector ones(n, 1.0);
  const la::Vector row_sums = sys.matrix.multiply(ones);
  double total_ambient_g = 0.0;
  for (const double v : row_sums) {
    EXPECT_GE(v, -1e-12);
    total_ambient_g += v;
  }
  // Total ambient coupling = g_HS&fan(ω) + g_PCB.
  const auto& cfg = m.config();
  EXPECT_NEAR(total_ambient_g,
              cfg.sink_fan.conductance(300.0) + cfg.pcb_to_ambient_conductance,
              1e-9);
}

TEST(ThermalModel, UniformPowerSolutionIsPhysical) {
  const ThermalModel m = make_model(5);
  const std::size_t cells = m.layout().cells_per_layer();
  const la::Vector dyn(cells, 30.0 / static_cast<double>(cells));
  const auto sys = m.assemble(400.0, 0.0, dyn, zero_taylor(cells));
  const la::Vector t = la::BandedLu(sys.matrix).solve(sys.rhs);
  const double amb = m.config().ambient;
  for (const double v : t) {
    EXPECT_GT(v, amb - 1e-9);
    EXPECT_LT(v, amb + 80.0);
  }
  // Heat flows down the stack: chip hotter than sink.
  EXPECT_GT(m.max_slab_temperature(t, Slab::kChip),
            m.max_slab_temperature(t, Slab::kSink));
}

TEST(ThermalModel, EnergyBalanceAtSolution) {
  // At steady state, power in = heat out to ambient:
  // Σ_nodes g_amb,i · (T_i − T_amb) = Σ chip power.
  const ThermalModel m = make_model(5);
  const std::size_t cells = m.layout().cells_per_layer();
  const double total_power = 25.0;
  const la::Vector dyn(cells, total_power / static_cast<double>(cells));
  const double omega = 350.0;
  const auto sys = m.assemble(omega, 0.0, dyn, zero_taylor(cells));
  const la::Vector t = la::BandedLu(sys.matrix).solve(sys.rhs);

  // Heat out = Σ row_i(G)·T − rhs contributions... simpler: G·T − P_chip has
  // to vanish; compute ambient outflow directly from the solution:
  // outflow = Σ_i g_amb,i (T_i − T_amb). Reconstruct via residual: since
  // G·T = rhs and rhs = P_chip + g_amb·T_amb, outflow = Σ (G·T)_i − g_amb·T_amb
  // summed = total chip power.
  const la::Vector gt = sys.matrix.multiply(t);
  double lhs_total = 0.0, rhs_power = 0.0;
  for (std::size_t i = 0; i < gt.size(); ++i) lhs_total += gt[i];
  for (std::size_t c = 0; c < cells; ++c) rhs_power += dyn[c];
  const auto& cfg = m.config();
  const double amb_coupling =
      cfg.sink_fan.conductance(omega) + cfg.pcb_to_ambient_conductance;
  EXPECT_NEAR(lhs_total - amb_coupling * cfg.ambient, rhs_power, 1e-6);
}

TEST(ThermalModel, TecCurrentMovesAbsorbDiagonalAndCoolsChip) {
  const ThermalModel m = make_model(8, true);
  // A core-concentrated workload: the hottest cells are TEC-covered, so
  // moderate current must lower the max chip temperature. (With *uniform*
  // power the hottest cells sit under the uncovered cache area and TEC
  // current only adds Joule heat — that is the deployment insight of
  // refs. [6][7] the paper builds on.)
  const power::PowerMap peak = workload::peak_power_map(
      workload::profile_for(workload::Benchmark::kQuicksort), fp());
  const la::Vector dyn = m.distribute(peak);
  const std::size_t cells = m.layout().cells_per_layer();

  const auto passive = m.assemble(400.0, 0.0, dyn, zero_taylor(cells));
  const auto active = m.assemble(400.0, 1.0, dyn, zero_taylor(cells));
  const la::Vector t0 = la::BandedLu(passive.matrix).solve(passive.rhs);
  const la::Vector t1 = la::BandedLu(active.matrix).solve(active.rhs);

  // The active matrix must differ on the TEC absorb-node diagonals (only
  // diagonals move: M stays symmetric).
  bool differs = false;
  for (std::size_t c = 0; c < cells && !differs; ++c) {
    const std::size_t node = m.layout().node(Slab::kTecAbs, c);
    differs = std::abs(active.matrix.get(node, node) -
                       passive.matrix.get(node, node)) > 1e-12;
  }
  EXPECT_TRUE(differs);
  // Moderate current lowers the hottest chip cell.
  EXPECT_LT(m.max_slab_temperature(t1, Slab::kChip),
            m.max_slab_temperature(t0, Slab::kChip));
}

TEST(ThermalModel, LeakageSlopeMovesToDiagonal) {
  const ThermalModel m = make_model(4);
  const std::size_t cells = m.layout().cells_per_layer();
  auto taylor = zero_taylor(cells);
  const auto before = m.assemble(300.0, 0.0, la::Vector(cells, 0.0), taylor);
  for (auto& tc : taylor) tc.a = 0.01;
  const auto after = m.assemble(300.0, 0.0, la::Vector(cells, 0.0), taylor);
  const std::size_t node = m.layout().node(Slab::kChip, 0);
  EXPECT_NEAR(after.matrix.get(node, node),
              before.matrix.get(node, node) - 0.01, 1e-12);
}

TEST(ThermalModel, DistributeConservesPower) {
  const ThermalModel m = make_model(7);
  const auto& prof =
      workload::profile_for(workload::Benchmark::kQuicksort);
  const power::PowerMap map = workload::peak_power_map(prof, fp());
  const la::Vector cell_power = m.distribute(map);
  EXPECT_NEAR(la::sum(cell_power), map.total(), 1e-8);
}

TEST(ThermalModel, CellLeakageConservesP0) {
  const ThermalModel m = make_model(6);
  const auto leak = power::characterize_leakage(fp(), power::ProcessConfig{});
  const auto terms = m.cell_leakage(leak);
  double total = 0.0;
  for (const auto& term : terms) {
    total += term.p0;
    EXPECT_DOUBLE_EQ(term.beta, leak.beta());
    EXPECT_DOUBLE_EQ(term.t0, leak.t0());
  }
  EXPECT_NEAR(total, leak.total_leakage(leak.t0()), 1e-8);
}

TEST(ThermalModel, CapacitancesArePositive) {
  const ThermalModel m = make_model(4);
  for (const double c : m.capacitances()) EXPECT_GT(c, 0.0);
}

TEST(ThermalModel, AssembleValidatesInputs) {
  const ThermalModel m = make_model(4);
  const std::size_t cells = m.layout().cells_per_layer();
  EXPECT_THROW(
      (void)m.assemble(100.0, 0.0, la::Vector(3, 0.0), zero_taylor(cells)),
      std::invalid_argument);
  EXPECT_THROW((void)m.assemble(100.0, 99.0, la::Vector(cells, 0.0),
                                zero_taylor(cells)),
               std::invalid_argument);
  EXPECT_THROW((void)m.assemble(100.0, -1.0, la::Vector(cells, 0.0),
                                zero_taylor(cells)),
               std::invalid_argument);
}

TEST(ThermalModel, HigherFanSpeedLowersTemperatures) {
  const ThermalModel m = make_model(5);
  const std::size_t cells = m.layout().cells_per_layer();
  const la::Vector dyn(cells, 40.0 / static_cast<double>(cells));
  const auto slow = m.assemble(50.0, 0.0, dyn, zero_taylor(cells));
  const auto fast = m.assemble(524.0, 0.0, dyn, zero_taylor(cells));
  const la::Vector t_slow = la::BandedLu(slow.matrix).solve(slow.rhs);
  const la::Vector t_fast = la::BandedLu(fast.matrix).solve(fast.rhs);
  EXPECT_LT(m.max_slab_temperature(t_fast, Slab::kChip),
            m.max_slab_temperature(t_slow, Slab::kChip));
}

TEST(ThermalModel, CsrAssemblyEqualsBandAssemblyBitwise) {
  // CG solves IncrementalAssembler::assemble_csr's system and the direct
  // fallback ThermalModel::assemble()'s, so the two must be one system, bit
  // for bit: every matrix entry and every rhs entry. The CSR matrix must
  // also be exactly symmetric, which CG and the runaway certificate assume.
  // Tangent leakage at a different temperature per cell gives every chip
  // diagonal its own slope.
  const power::LeakageModel leakage =
      power::characterize_leakage(fp(), power::ProcessConfig{});
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t systems = 0;
  std::size_t matrix_mismatches = 0;
  std::size_t rhs_mismatches = 0;
  std::size_t asymmetric = 0;
  for (const bool with_tec : {true, false}) {
    const ThermalModel m = make_model(10, with_tec);
    const std::size_t cells = m.layout().cells_per_layer();
    const std::size_t n = m.layout().node_count();
    const std::size_t bw = m.layout().bandwidth();
    const std::vector<power::ExponentialTerm> leak = m.cell_leakage(leakage);
    std::vector<power::TaylorCoefficients> taylor(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      taylor[c] = power::tangent_linearize(
          leak[c], 330.0 + 0.25 * static_cast<double>(c));
    }
    std::vector<double> currents = {0.0};
    if (with_tec) currents = {0.0, 0.7, 2.3};
    for (const workload::Benchmark b : workload::all_benchmarks()) {
      const la::Vector dyn = m.distribute(
          workload::peak_power_map(workload::profile_for(b), fp()));
      const IncrementalAssembler assembler(m, dyn);
      CsrSystem csr;  // reused: the in-place restamp path after the first
      for (const double omega : {0.0, 100.0, 300.0, 520.0}) {
        for (const double current : currents) {
          const AssembledSystem band =
              m.assemble(omega, current, dyn, taylor);
          assembler.assemble_csr(omega, la::Vector(cells, current), taylor,
                                 csr);
          ++systems;
          ASSERT_EQ(csr.matrix.size(), n);
          ASSERT_EQ(csr.rhs.size(), n);
          // Entry for entry: every stored sparse value against the band,
          // and every band entry the sparse pattern leaves out must be
          // zero. Every stored entry lies within the band.
          const std::vector<double>& values = csr.matrix.values();
          std::size_t stored = 0;
          for (std::size_t r = 0; r < n; ++r) {
            const std::size_t lo = r > bw ? r - bw : 0;
            const std::size_t hi = std::min(n - 1, r + bw);
            for (std::size_t c = lo; c <= hi; ++c) {
              const double b = band.matrix.get(r, c);
              const std::size_t p = csr.matrix.position(r, c);
              if (p == la::SparseMatrix::npos) {
                if (b != 0.0) ++matrix_mismatches;
                continue;
              }
              ++stored;
              if (bits(values[p]) != bits(b)) ++matrix_mismatches;
            }
            if (bits(csr.rhs[r]) != bits(band.rhs[r])) ++rhs_mismatches;
          }
          if (stored != csr.matrix.nnz()) ++matrix_mismatches;
          if (!csr.matrix.is_symmetric(0.0)) ++asymmetric;
        }
      }
    }
  }
  EXPECT_EQ(systems, 8u * 4u * 3u + 8u * 4u);
  EXPECT_EQ(matrix_mismatches, 0u) << "over " << systems << " systems";
  EXPECT_EQ(rhs_mismatches, 0u) << "over " << systems << " systems";
  EXPECT_EQ(asymmetric, 0u) << "over " << systems << " systems";
}

}  // namespace
}  // namespace oftec::thermal
