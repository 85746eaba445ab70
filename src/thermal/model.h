// Compact thermal model of the hybrid cooling assembly (paper Sec. 4).
//
// Builds the electrical-dual RC network for the 7-layer package over an
// nx×ny grid and assembles, for a given fan speed ω and TEC current I_TEC,
// the linear system
//
//     M(ω, I)·T = rhs(ω, I),        M = G − A,
//
// where G is the conductance matrix (Eq. 18; the sink-to-ambient entries
// depend on ω through Eq. 9) and A collects the temperature-proportional
// power terms folded onto the left-hand side: the Taylor-linearized leakage
// slope on chip cells (Eq. 4) and the Peltier sources ±α·I·T on the TEC
// absorb/reject interface nodes (Eqs. 5–6). The Joule term R·I² (Eq. 7 heat
// part) and all constant powers land in rhs.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "floorplan/floorplan.h"
#include "floorplan/grid_map.h"
#include "la/banded_matrix.h"
#include "la/column_jacobi.h"
#include "la/sparse.h"
#include "la/vector_ops.h"
#include "package/package_config.h"
#include "power/leakage.h"
#include "power/power_map.h"
#include "tec/array.h"
#include "thermal/layout.h"

namespace oftec::thermal {

/// Assembled linear system for one (ω, I, linearization) operating point.
struct AssembledSystem {
  la::BandedMatrix matrix;
  la::Vector rhs;
};

/// Assembled system in sparse (SELL-8) form, for the CG solver. The
/// sparsity pattern is fixed per model; only values change across operating
/// points.
struct CsrSystem {
  la::SparseMatrix matrix;
  la::Vector rhs;
};

/// Where node i's diagonal entry of M lives: data[i·stride] in band storage
/// (or a lower band), data[positions[i]] in sparse storage when positions is
/// set.
struct DiagonalView {
  double* data = nullptr;
  std::size_t stride = 1;
  const std::size_t* positions = nullptr;

  [[nodiscard]] double& operator[](std::size_t node) const noexcept {
    return data[positions != nullptr ? positions[node] : node * stride];
  }
};

class ThermalModel {
 public:
  /// Build the network geometry for `cfg` over `fp` with an nx×ny grid.
  /// The floorplan must outlive the model. `coverage_override`, when given,
  /// replaces the default deployment policy (cover all core-majority cells)
  /// with an explicit per-cell TEC placement — the hook used by the
  /// selective-deployment optimizer (refs. [6][7]).
  ThermalModel(package::PackageConfig cfg, const floorplan::Floorplan& fp,
               std::size_t nx, std::size_t ny,
               std::optional<std::vector<bool>> coverage_override =
                   std::nullopt);

  [[nodiscard]] const NodeLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] const package::PackageConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const floorplan::GridMap& grid() const noexcept {
    return *grid_;
  }
  /// TEC deployment, or nullptr when the package has no TECs.
  [[nodiscard]] const tec::TecArray* tec_array() const noexcept {
    return tec_array_ ? &*tec_array_ : nullptr;
  }

  /// Distribute a per-block power map onto chip grid cells [W].
  [[nodiscard]] la::Vector distribute(const power::PowerMap& map) const;

  /// Per-cell exponential leakage terms derived from a per-block model.
  [[nodiscard]] std::vector<power::ExponentialTerm> cell_leakage(
      const power::LeakageModel& model) const;

  /// Assemble M(ω,I)·T = rhs. `cell_dynamic_power` and `cell_taylor` are
  /// indexed by chip grid cell (size = cells_per_layer). Built as
  /// static_system() plus stamp_diagonal() and stamp_rhs().
  [[nodiscard]] AssembledSystem assemble(
      double omega, double current, const la::Vector& cell_dynamic_power,
      const std::vector<power::TaylorCoefficients>& cell_taylor) const;

  /// Multi-zone generalization: an independent driving current per cell
  /// (cells in the same electrical zone share a value; uncovered cells'
  /// entries are ignored). The paper wires all TECs in series — one shared
  /// I_TEC — and names finer-grained control as the natural extension.
  [[nodiscard]] AssembledSystem assemble(
      double omega, const la::Vector& cell_current,
      const la::Vector& cell_dynamic_power,
      const std::vector<power::TaylorCoefficients>& cell_taylor) const;

  /// The operating-point-independent part of M·T = rhs: the conduction
  /// edges and the PCB-to-ambient couplings (diag += g, rhs += g·T_amb).
  /// Built on each call; every banded system (assemble(), a transient step
  /// matrix) starts from it.
  [[nodiscard]] AssembledSystem static_system() const;

  /// static_system() in sparse form: the same entries, summed in the same
  /// order (so bit for bit the same values), plus a stored diagonal on
  /// every node for the operating-point stamps. Built once, by the
  /// constructor; every CG system (IncrementalAssembler, TransientStepper)
  /// copies its values and stamps them.
  [[nodiscard]] const CsrSystem& static_csr_system() const noexcept {
    return static_csr_;
  }

  /// Storage index in static_csr_system().matrix.values() of node i's
  /// diagonal, for DiagonalView::positions.
  [[nodiscard]] const std::vector<std::size_t>& static_diagonal_positions()
      const noexcept {
    return static_diag_pos_;
  }

  /// Add the operating-point terms of M to `diag`, in assemble()'s order:
  /// the sink couplings g(ω)·share, the chip leakage slopes −a, and on
  /// covered cells with I > 0 the Peltier terms +α·I (absorb node) and
  /// −α·I (reject node). Per-cell arguments are checked.
  void stamp_diagonal(
      DiagonalView diag, double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& cell_taylor) const;

  /// Add the operating-point terms of rhs (size node_count) in assemble()'s
  /// order: g(ω)·share·T_amb on the sink couplings, p + b − a·t_ref on chip
  /// cells, and on covered cells with I > 0 the Joule heat R·I² on the TEC
  /// body node. Arities are checked.
  void stamp_rhs(
      la::Vector& rhs, double omega, const la::Vector& cell_current,
      const la::Vector& cell_dynamic_power,
      const std::vector<power::TaylorCoefficients>& cell_taylor) const;

  /// Right-hand sides of the sensitivity systems J·∂T/∂p = −∂R/∂p, where
  /// R(T) = M·T − rhs is the steady residual at node temperatures T: the
  /// derivatives of the stamps above, each closed form.
  ///
  /// ω: the sink-to-ambient couplings, g′(ω)·share·(T_amb − T) on the sink
  /// top (zero on the natural-convection floor).
  void omega_sensitivity_rhs(double omega, const la::Vector& temperatures,
                             la::Vector& out) const;
  /// Currents moving as I + s·direction (per cell; uncovered cells are
  /// ignored): on each covered cell −α·T_c on the absorb node, +α·T_h on
  /// the reject node and the Joule slope 2·R·I on the body node, scaled by
  /// the cell's direction entry. The Peltier terms are stamped at I = 0
  /// too — the right derivative — although assembly skips them there.
  void current_sensitivity_rhs(const la::Vector& cell_current,
                               const la::Vector& direction,
                               const la::Vector& temperatures,
                               la::Vector& out) const;

  /// Per-node thermal capacitance [J/K] for transient steps.
  [[nodiscard]] const la::Vector& capacitances() const noexcept {
    return capacitance_;
  }

  /// Extract one slab's cell temperatures from a full node vector.
  [[nodiscard]] la::Vector slab_temperatures(const la::Vector& temperatures,
                                             Slab slab) const;

  /// Max cell temperature within a slab.
  [[nodiscard]] double max_slab_temperature(const la::Vector& temperatures,
                                            Slab slab) const;

  /// Total TEC electrical power (Eq. 3 / Eq. 7 summed) at the given node
  /// temperatures and current. Zero for packages without TECs.
  [[nodiscard]] double tec_power(const la::Vector& temperatures,
                                 double current) const;

  /// Per-cell-current variant of tec_power.
  [[nodiscard]] double tec_power(const la::Vector& temperatures,
                                 const la::Vector& cell_current) const;

  /// Derivative of the per-cell-current tec_power as the node temperatures
  /// move along `dt` and the currents along `direction` (empty: currents
  /// fixed): Σ α·I·(dT_h − dT_c) + d·(α·(T_h − T_c) + 2·R·I) over covered
  /// cells. The right derivative at I = 0, where tec_power is 0 but the
  /// Peltier term still contributes α·(T_h − T_c)·d.
  [[nodiscard]] double tec_power_tangent(const la::Vector& temperatures,
                                         const la::Vector& cell_current,
                                         const la::Vector& dt,
                                         const la::Vector& direction) const;

  /// Exact (exponential) total leakage power at the given node temperatures.
  [[nodiscard]] double leakage_power(
      const la::Vector& temperatures,
      const std::vector<power::ExponentialTerm>& cell_terms) const;

  /// Derivative of leakage_power as the node temperatures move along `dt`:
  /// Σ p′(T)·dT over chip cells.
  [[nodiscard]] double leakage_power_tangent(
      const la::Vector& temperatures,
      const std::vector<power::ExponentialTerm>& cell_terms,
      const la::Vector& dt) const;

  /// Heat leaving the package to ambient [W] at the given temperatures and
  /// fan speed: Σ g_amb,i · (T_i − T_amb) over the PCB bottom and heat-sink
  /// top couplings. At a converged steady state this equals the total power
  /// injected (dynamic + leakage + TEC electrical) — first-law book-keeping
  /// exposed for diagnostics and tests.
  [[nodiscard]] double ambient_outflow(const la::Vector& temperatures,
                                       double omega) const;

 private:
  void build_static_network();
  void add_edge(std::size_t i, std::size_t j, double conductance);
  /// Call add(r, c, v) for every static matrix term and add_rhs(node, v)
  /// for every static rhs term, in the one order both static systems sum.
  template <class AddMatrix, class AddRhs>
  void for_each_static_term(AddMatrix&& add, AddRhs&& add_rhs) const;
  /// Build static_csr_ and static_diag_pos_ (after the static network).
  void build_static_csr_system();

  package::PackageConfig cfg_;
  const floorplan::Floorplan* fp_;
  NodeLayout layout_;
  std::unique_ptr<floorplan::GridMap> grid_;
  std::optional<tec::TecArray> tec_array_;
  std::vector<bool> coverage_;

  /// ω- and I-independent conduction edges (i < j, conductance g).
  struct Edge {
    std::size_t i;
    std::size_t j;
    double g;
  };
  std::vector<Edge> edges_;
  /// Chip node of every cell, for the stamps.
  std::vector<std::size_t> chip_node_;
  /// A covered TEC cell as the stamps see it: its three nodes and its m·α
  /// and m·R. Ascending by cell.
  struct TecStamp {
    std::size_t cell;
    std::size_t abs_node;
    std::size_t gen_node;
    std::size_t rej_node;
    double seebeck;
    double resistance;
  };
  std::vector<TecStamp> tec_stamps_;
  /// ω-independent ambient couplings (node, g): PCB bottom.
  std::vector<std::pair<std::size_t, double>> static_ambient_;
  /// Sink-node share of the ω-dependent g_HS&fan (node, area fraction).
  std::vector<std::pair<std::size_t, double>> sink_ambient_share_;
  la::Vector capacitance_;
  CsrSystem static_csr_;
  std::vector<std::size_t> static_diag_pos_;
};

/// Incremental assembler for repeated solves of one model + workload.
///
/// Every operating-point dependence of M(ω, I, linearization) is diagonal:
/// ω scales the sink-to-ambient couplings, I_TEC adds ±α·I on the TEC
/// interface diagonals, and the leakage linearization moves the chip
/// diagonal. The off-diagonal conduction structure never changes. This
/// class therefore produces each operating point's system by copying the
/// values of the model's static sparse system and stamping the diagonal
/// (at ThermalModel::static_diagonal_positions) and rhs through the model
/// (ThermalModel::stamp_diagonal, stamp_rhs) — so assemble_csr() equals
/// ThermalModel::assemble() entry for entry, bit for bit, in sparse form.
///
/// The assembler is immutable after construction and safe to share across
/// threads when each thread supplies its own CsrSystem scratch.
class IncrementalAssembler {
 public:
  /// Binds one model and one per-cell dynamic power vector (the workload).
  IncrementalAssembler(const ThermalModel& model, la::Vector cell_dynamic_power);

  [[nodiscard]] const ThermalModel& model() const noexcept { return *model_; }
  [[nodiscard]] const la::Vector& cell_dynamic_power() const noexcept {
    return dynamic_;
  }

  /// Assemble M(ω, cell_current, taylor)·T = rhs into `out`, reusing its
  /// storage when the pattern already matches (zero allocations then).
  void assemble_csr(double omega, const la::Vector& cell_current,
                    const std::vector<power::TaylorCoefficients>& cell_taylor,
                    CsrSystem& out) const;

  /// The rhs of M(ω, cell_current, taylor)·T = rhs into `out`: the static
  /// rhs plus ThermalModel::stamp_rhs — the rhs of assemble_csr() and, bit
  /// for bit, of assemble_banded().
  void assemble_rhs(double omega, const la::Vector& cell_current,
                    const std::vector<power::TaylorCoefficients>& cell_taylor,
                    la::Vector& out) const;

  /// Column structure of the fixed sparse pattern for la::ColumnBlockJacobi:
  /// every (x, y) column runs through the nine slabs bottom to top, and the
  /// three ring nodes are singletons. The coarse level: 5×5 lateral
  /// aggregates × 3 slab groups (spreader, sink, the rest) + 3 rings = 78.
  [[nodiscard]] la::ColumnBlockSymbolic column_structure() const;

  /// Band-storage form for the direct solvers (ThermalModel::assemble —
  /// only used on the direct fallback path).
  [[nodiscard]] AssembledSystem assemble_banded(
      double omega, const la::Vector& cell_current,
      const std::vector<power::TaylorCoefficients>& cell_taylor) const;

 private:
  const ThermalModel* model_;
  la::Vector dynamic_;
};

}  // namespace oftec::thermal
