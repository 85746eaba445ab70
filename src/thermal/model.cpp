#include "thermal/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace oftec::thermal {

namespace {

using package::LayerRole;
using package::LayerSpec;

/// Half-thickness vertical resistance of a layer over one cell [K/W].
[[nodiscard]] double half_resistance(const LayerSpec& layer,
                                     double cell_area) noexcept {
  return (layer.thickness / 2.0) / (layer.material.conductivity * cell_area);
}

/// Series conductance of two half-cells with possibly different lateral
/// conductivities (used for covered↔uncovered TEC-layer neighbors).
[[nodiscard]] double lateral_conductance(double k_a, double k_b,
                                         double thickness, double face_len,
                                         double pitch) noexcept {
  const double r_a = (pitch / 2.0) / (k_a * thickness * face_len);
  const double r_b = (pitch / 2.0) / (k_b * thickness * face_len);
  return 1.0 / (r_a + r_b);
}

}  // namespace

ThermalModel::ThermalModel(package::PackageConfig cfg,
                           const floorplan::Floorplan& fp, std::size_t nx,
                           std::size_t ny,
                           std::optional<std::vector<bool>> coverage_override)
    : cfg_(std::move(cfg)), fp_(&fp), layout_(nx, ny) {
  cfg_.validate();
  const LayerSpec& chip = cfg_.layer(LayerRole::kChip);
  if (std::abs(chip.width - fp.die_width()) > 1e-9 ||
      std::abs(chip.height - fp.die_height()) > 1e-9) {
    throw std::invalid_argument(
        "ThermalModel: floorplan die does not match chip layer size");
  }
  grid_ = std::make_unique<floorplan::GridMap>(fp, nx, ny);

  if (cfg_.has_tec) {
    if (coverage_override) {
      if (coverage_override->size() != layout_.cells_per_layer()) {
        throw std::invalid_argument(
            "ThermalModel: coverage override arity mismatch");
      }
      coverage_ = std::move(*coverage_override);
    } else {
      coverage_ = grid_->tec_coverage();
    }
    tec_array_.emplace(cfg_.tec, coverage_, grid_->cell_area());
  } else {
    coverage_.assign(layout_.cells_per_layer(), false);
  }

  build_static_network();

  const std::size_t cells = layout_.cells_per_layer();
  chip_node_.resize(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    chip_node_[cell] = layout_.node(Slab::kChip, cell);
    if (!tec_array_) continue;
    const tec::CellTec& ct = tec_array_->cell(cell);
    if (!ct.covered) continue;
    tec_stamps_.push_back({cell, layout_.node(Slab::kTecAbs, cell),
                           layout_.node(Slab::kTecGen, cell),
                           layout_.node(Slab::kTecRej, cell), ct.seebeck,
                           ct.resistance});
  }
  build_static_csr_system();
}

void ThermalModel::add_edge(std::size_t i, std::size_t j, double conductance) {
  if (i == j || conductance <= 0.0) {
    throw std::logic_error("ThermalModel::add_edge: bad edge");
  }
  if (i > j) std::swap(i, j);
  if (j - i > layout_.bandwidth()) {
    throw std::logic_error("ThermalModel::add_edge: edge exceeds bandwidth");
  }
  edges_.push_back({i, j, conductance});
}

void ThermalModel::build_static_network() {
  const std::size_t nx = layout_.nx();
  const std::size_t ny = layout_.ny();
  const std::size_t cells = layout_.cells_per_layer();
  const double cell_w = grid_->cell_width();
  const double cell_h = grid_->cell_height();
  const double cell_area = grid_->cell_area();

  const LayerSpec& pcb = cfg_.layer(LayerRole::kPcb);
  const LayerSpec& chip = cfg_.layer(LayerRole::kChip);
  const LayerSpec& tim1 = cfg_.layer(LayerRole::kTim1);
  const LayerSpec& tec_layer = cfg_.layer(LayerRole::kTec);
  const LayerSpec& spreader = cfg_.layer(LayerRole::kSpreader);
  const LayerSpec& tim2 = cfg_.layer(LayerRole::kTim2);
  const LayerSpec& sink = cfg_.layer(LayerRole::kHeatSink);

  // ---- Vertical conduction, cell by cell --------------------------------
  const double g_pcb_chip =
      1.0 / (half_resistance(pcb, cell_area) + half_resistance(chip, cell_area));
  const double g_chip_tim1 =
      1.0 / (half_resistance(chip, cell_area) + half_resistance(tim1, cell_area));
  const double g_tim1_abs = 1.0 / half_resistance(tim1, cell_area);
  const double g_rej_spreader = 1.0 / half_resistance(spreader, cell_area);
  const double g_spreader_tim2 = 1.0 / (half_resistance(spreader, cell_area) +
                                        half_resistance(tim2, cell_area));
  const double g_tim2_sink =
      1.0 / (half_resistance(tim2, cell_area) + half_resistance(sink, cell_area));

  // Conductance of half the TEC-layer thickness over one cell: a TEC device
  // (K per unit × multiplier) on covered cells, filler paste elsewhere.
  const double k_filler = cfg_.filler_conductivity;
  const double g_filler_half =
      2.0 * k_filler * cell_area / tec_layer.thickness;

  for (std::size_t cell = 0; cell < cells; ++cell) {
    add_edge(layout_.node(Slab::kPcb, cell), layout_.node(Slab::kChip, cell),
             g_pcb_chip);
    add_edge(layout_.node(Slab::kChip, cell), layout_.node(Slab::kTim1, cell),
             g_chip_tim1);
    add_edge(layout_.node(Slab::kTim1, cell), layout_.node(Slab::kTecAbs, cell),
             g_tim1_abs);

    double g_half = g_filler_half;
    if (tec_array_ && tec_array_->cell(cell).covered) {
      g_half = 2.0 * tec_array_->cell(cell).conductance;
    }
    add_edge(layout_.node(Slab::kTecAbs, cell),
             layout_.node(Slab::kTecGen, cell), g_half);
    add_edge(layout_.node(Slab::kTecGen, cell),
             layout_.node(Slab::kTecRej, cell), g_half);

    add_edge(layout_.node(Slab::kTecRej, cell),
             layout_.node(Slab::kSpreader, cell), g_rej_spreader);
    add_edge(layout_.node(Slab::kSpreader, cell),
             layout_.node(Slab::kTim2, cell), g_spreader_tim2);
    add_edge(layout_.node(Slab::kTim2, cell), layout_.node(Slab::kSink, cell),
             g_tim2_sink);
  }

  // ---- Lateral conduction within slabs -----------------------------------
  // Interface slabs (abs/rej) have no thickness, hence no lateral path; the
  // TEC body (gen) conducts laterally through device material / filler.
  struct LateralSlab {
    Slab slab;
    const LayerSpec* layer;
    bool per_cell_k;  // true → TEC body: conductivity depends on coverage
  };
  const LateralSlab lateral_slabs[] = {
      {Slab::kPcb, &pcb, false},       {Slab::kChip, &chip, false},
      {Slab::kTim1, &tim1, false},     {Slab::kTecGen, &tec_layer, true},
      {Slab::kSpreader, &spreader, false}, {Slab::kTim2, &tim2, false},
      {Slab::kSink, &sink, false},
  };

  auto cell_k = [&](const LateralSlab& ls, std::size_t cell) {
    if (!ls.per_cell_k) return ls.layer->material.conductivity;
    const bool covered = tec_array_ && tec_array_->cell(cell).covered;
    return covered ? tec_layer.material.conductivity : k_filler;
  };

  for (const LateralSlab& ls : lateral_slabs) {
    const double t = ls.layer->thickness;
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t cell = layout_.cell_index(ix, iy);
        if (ix + 1 < nx) {
          const std::size_t right = layout_.cell_index(ix + 1, iy);
          const double g = lateral_conductance(cell_k(ls, cell),
                                               cell_k(ls, right), t, cell_h,
                                               cell_w);
          add_edge(layout_.node(ls.slab, cell), layout_.node(ls.slab, right),
                   g);
        }
        if (iy + 1 < ny) {
          const std::size_t up = layout_.cell_index(ix, iy + 1);
          const double g = lateral_conductance(cell_k(ls, cell),
                                               cell_k(ls, up), t, cell_w,
                                               cell_h);
          add_edge(layout_.node(ls.slab, cell), layout_.node(ls.slab, up), g);
        }
      }
    }
  }

  // ---- Overhang ring nodes ------------------------------------------------
  const double die_w = fp_->die_width();
  const double die_h = fp_->die_height();
  const double spreader_ring_area = spreader.area() - die_w * die_h;
  const double tim2_ring_area = tim2.area() - die_w * die_h;
  const double sink_ring_area = sink.area() - die_w * die_h;
  if (spreader_ring_area <= 0.0 || tim2_ring_area <= 0.0 ||
      sink_ring_area <= 0.0) {
    throw std::invalid_argument(
        "ThermalModel: spreader/TIM2/sink must overhang the die");
  }

  // Edge cells ↔ ring, laterally through the slab material.
  auto connect_ring = [&](Slab slab, const LayerSpec& layer,
                          std::size_t ring_node) {
    const double ring_extent = (layer.width - die_w) / 2.0;
    const double k = layer.material.conductivity;
    const double t = layer.thickness;
    auto lateral_to_ring = [&](double face_len, double pitch) {
      return k * t * face_len / (pitch / 2.0 + ring_extent / 2.0);
    };
    for (std::size_t iy = 0; iy < ny; ++iy) {
      add_edge(layout_.node(slab, layout_.cell_index(0, iy)), ring_node,
               lateral_to_ring(cell_h, cell_w));
      add_edge(layout_.node(slab, layout_.cell_index(nx - 1, iy)), ring_node,
               lateral_to_ring(cell_h, cell_w));
    }
    for (std::size_t ix = 0; ix < nx; ++ix) {
      add_edge(layout_.node(slab, layout_.cell_index(ix, 0)), ring_node,
               lateral_to_ring(cell_w, cell_h));
      add_edge(layout_.node(slab, layout_.cell_index(ix, ny - 1)), ring_node,
               lateral_to_ring(cell_w, cell_h));
    }
  };
  connect_ring(Slab::kSpreader, spreader, layout_.spreader_ring());
  connect_ring(Slab::kSink, sink, layout_.sink_ring());

  // Vertical ring-to-ring path: spreader ring → TIM2 ring → sink ring.
  const double g_spring_t2ring =
      1.0 / ((spreader.thickness / 2.0) /
                 (spreader.material.conductivity * spreader_ring_area) +
             (tim2.thickness / 2.0) /
                 (tim2.material.conductivity * tim2_ring_area));
  add_edge(layout_.spreader_ring(), layout_.tim2_ring(), g_spring_t2ring);
  // TIM2 ring contacts the sink over the TIM2 overhang area only.
  const double g_t2ring_sinkring =
      1.0 / ((tim2.thickness / 2.0) /
                 (tim2.material.conductivity * tim2_ring_area) +
             (sink.thickness / 2.0) /
                 (sink.material.conductivity * tim2_ring_area));
  add_edge(layout_.tim2_ring(), layout_.sink_ring(), g_t2ring_sinkring);

  // ---- Ambient couplings --------------------------------------------------
  // Secondary path: PCB bottom to ambient (ω-independent).
  if (cfg_.pcb_to_ambient_conductance > 0.0) {
    const double g_per_cell =
        cfg_.pcb_to_ambient_conductance / static_cast<double>(cells);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      static_ambient_.emplace_back(layout_.node(Slab::kPcb, cell), g_per_cell);
    }
  }
  // Primary path: heat-sink top to ambient; the total g_HS&fan(ω) is split
  // by top-surface area share at assembly time.
  const double sink_area = sink.area();
  for (std::size_t cell = 0; cell < cells; ++cell) {
    sink_ambient_share_.emplace_back(layout_.node(Slab::kSink, cell),
                                     cell_area / sink_area);
  }
  sink_ambient_share_.emplace_back(layout_.sink_ring(),
                                   sink_ring_area / sink_area);

  // ---- Capacitances -------------------------------------------------------
  capacitance_.assign(layout_.node_count(), 0.0);
  auto cap = [&](const LayerSpec& layer) {
    return layer.material.volumetric_heat_capacity * layer.thickness *
           cell_area;
  };
  for (std::size_t cell = 0; cell < cells; ++cell) {
    capacitance_[layout_.node(Slab::kPcb, cell)] = cap(pcb);
    capacitance_[layout_.node(Slab::kChip, cell)] = cap(chip);
    capacitance_[layout_.node(Slab::kTim1, cell)] = cap(tim1);
    // TEC layer heat capacity split 1/4 : 1/2 : 1/4 over abs/gen/rej.
    const double tec_cap = cap(tec_layer);
    capacitance_[layout_.node(Slab::kTecAbs, cell)] = 0.25 * tec_cap;
    capacitance_[layout_.node(Slab::kTecGen, cell)] = 0.50 * tec_cap;
    capacitance_[layout_.node(Slab::kTecRej, cell)] = 0.25 * tec_cap;
    capacitance_[layout_.node(Slab::kSpreader, cell)] = cap(spreader);
    capacitance_[layout_.node(Slab::kTim2, cell)] = cap(tim2);
    capacitance_[layout_.node(Slab::kSink, cell)] = cap(sink);
  }
  capacitance_[layout_.spreader_ring()] =
      spreader.material.volumetric_heat_capacity * spreader.thickness *
      spreader_ring_area;
  capacitance_[layout_.tim2_ring()] =
      tim2.material.volumetric_heat_capacity * tim2.thickness * tim2_ring_area;
  capacitance_[layout_.sink_ring()] =
      sink.material.volumetric_heat_capacity * sink.thickness * sink_ring_area;
}

la::Vector ThermalModel::distribute(const power::PowerMap& map) const {
  return grid_->distribute_power(map.values());
}

std::vector<power::ExponentialTerm> ThermalModel::cell_leakage(
    const power::LeakageModel& model) const {
  const la::Vector p0_cells = grid_->distribute_power(model.p0());
  std::vector<power::ExponentialTerm> terms(p0_cells.size());
  for (std::size_t i = 0; i < p0_cells.size(); ++i) {
    terms[i] = {p0_cells[i], model.beta(), model.t0()};
  }
  return terms;
}

AssembledSystem ThermalModel::assemble(
    double omega, double current, const la::Vector& cell_dynamic_power,
    const std::vector<power::TaylorCoefficients>& cell_taylor) const {
  return assemble(omega, la::Vector(layout_.cells_per_layer(), current),
                  cell_dynamic_power, cell_taylor);
}

AssembledSystem ThermalModel::assemble(
    double omega, const la::Vector& cell_current,
    const la::Vector& cell_dynamic_power,
    const std::vector<power::TaylorCoefficients>& cell_taylor) const {
  for (const double current : cell_current) {
    if (current < 0.0 || current > cfg_.tec.max_current * (1.0 + 1e-9)) {
      throw std::invalid_argument(
          "ThermalModel::assemble: current out of range");
    }
  }
  AssembledSystem sys = static_system();
  la::BandedMatrix& m = sys.matrix;
  stamp_diagonal({m.col_ptr(0) + m.lower_bandwidth() + m.upper_bandwidth(),
                  m.storage_rows()},
                 omega, cell_current, cell_taylor);
  stamp_rhs(sys.rhs, omega, cell_current, cell_dynamic_power, cell_taylor);
  return sys;
}

template <class AddMatrix, class AddRhs>
void ThermalModel::for_each_static_term(AddMatrix&& add,
                                        AddRhs&& add_rhs) const {
  // Conduction network (Eq. 18 structure).
  for (const Edge& e : edges_) {
    add(e.i, e.i, e.g);
    add(e.j, e.j, e.g);
    add(e.i, e.j, -e.g);
    add(e.j, e.i, -e.g);
  }
  // PCB-to-ambient couplings: diag += g, rhs += g·T_amb.
  for (const auto& [node, g] : static_ambient_) {
    add(node, node, g);
    add_rhs(node, g * cfg_.ambient);
  }
}

AssembledSystem ThermalModel::static_system() const {
  const std::size_t n = layout_.node_count();
  const std::size_t bw = layout_.bandwidth();
  AssembledSystem sys{la::BandedMatrix(n, bw, bw), la::Vector(n, 0.0)};
  for_each_static_term(
      [&m = sys.matrix](std::size_t r, std::size_t c, double v) {
        m.add(r, c, v);
      },
      [&rhs = sys.rhs](std::size_t node, double v) { rhs[node] += v; });
  return sys;
}

void ThermalModel::build_static_csr_system() {
  const std::size_t n = layout_.node_count();
  static_csr_.rhs.assign(n, 0.0);
  la::TripletBuilder builder(n);
  // Band storage and the builder both start every entry at 0.0 and add its
  // terms in insertion order, so both forms hold the same bits. The
  // leading zeros store a diagonal on every node for the stamps.
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 0.0);
  for_each_static_term(
      [&builder](std::size_t r, std::size_t c, double v) {
        builder.add(r, c, v);
      },
      [&rhs = static_csr_.rhs](std::size_t node, double v) {
        rhs[node] += v;
      });
  static_csr_.matrix = builder.build();
  static_diag_pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    static_diag_pos_[i] = static_csr_.matrix.position(i, i);
  }
}

void ThermalModel::stamp_diagonal(
    DiagonalView diag, double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& cell_taylor) const {
  const std::size_t cells = layout_.cells_per_layer();
  if (cell_current.size() != cells || cell_taylor.size() != cells) {
    throw std::invalid_argument("ThermalModel::stamp_diagonal: arity");
  }
  const auto add = [diag](std::size_t node, double v) { diag[node] += v; };
  // Heat-sink top to ambient: g_HS&fan(ω) split by top-surface area share.
  const double g_sink_total = cfg_.sink_fan.conductance(omega);
  for (const auto& [node, share] : sink_ambient_share_) {
    add(node, g_sink_total * share);
  }
  // Linearized leakage (Eq. 4): the slope a moves to the diagonal — the
  // term that can destroy diagonal dominance and produce thermal runaway.
  for (std::size_t cell = 0; cell < cells; ++cell) {
    add(chip_node_[cell], -cell_taylor[cell].a);
  }
  // Peltier transport on the TEC interface nodes (Eqs. 5–6), temperature-
  // proportional and therefore on the left-hand side.
  for (const TecStamp& t : tec_stamps_) {
    const double current = cell_current[t.cell];
    if (current <= 0.0) continue;
    const double peltier = t.seebeck * current;
    add(t.abs_node, peltier);   // p = −α·I·T_c
    add(t.rej_node, -peltier);  // p = +α·I·T_h
  }
}

void ThermalModel::stamp_rhs(
    la::Vector& rhs, double omega, const la::Vector& cell_current,
    const la::Vector& cell_dynamic_power,
    const std::vector<power::TaylorCoefficients>& cell_taylor) const {
  const std::size_t cells = layout_.cells_per_layer();
  if (rhs.size() != layout_.node_count() || cell_current.size() != cells ||
      cell_dynamic_power.size() != cells || cell_taylor.size() != cells) {
    throw std::invalid_argument("ThermalModel::stamp_rhs: arity");
  }
  const double g_sink_total = cfg_.sink_fan.conductance(omega);
  for (const auto& [node, share] : sink_ambient_share_) {
    const double g = g_sink_total * share;
    rhs[node] += g * cfg_.ambient;
  }
  // Chip layer: dynamic power plus the constant part of the linearized
  // leakage.
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const power::TaylorCoefficients& tc = cell_taylor[cell];
    rhs[chip_node_[cell]] += cell_dynamic_power[cell] + tc.b - tc.a * tc.t_ref;
  }
  // Joule heat R·I² (Eq. 7) on the TEC body node.
  for (const TecStamp& t : tec_stamps_) {
    const double current = cell_current[t.cell];
    if (current <= 0.0) continue;
    rhs[t.gen_node] += t.resistance * current * current;
  }
}

void ThermalModel::omega_sensitivity_rhs(double omega,
                                         const la::Vector& temperatures,
                                         la::Vector& out) const {
  const std::size_t n = layout_.node_count();
  if (temperatures.size() != n) {
    throw std::invalid_argument("ThermalModel::omega_sensitivity_rhs: arity");
  }
  out.assign(n, 0.0);
  const double dg = cfg_.sink_fan.conductance_derivative(omega);
  for (const auto& [node, share] : sink_ambient_share_) {
    out[node] = dg * share * (cfg_.ambient - temperatures[node]);
  }
}

void ThermalModel::current_sensitivity_rhs(const la::Vector& cell_current,
                                           const la::Vector& direction,
                                           const la::Vector& temperatures,
                                           la::Vector& out) const {
  const std::size_t cells = layout_.cells_per_layer();
  if (cell_current.size() != cells || direction.size() != cells ||
      temperatures.size() != layout_.node_count()) {
    throw std::invalid_argument(
        "ThermalModel::current_sensitivity_rhs: arity");
  }
  out.assign(layout_.node_count(), 0.0);
  if (!tec_array_) return;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const tec::CellTec& ct = tec_array_->cell(cell);
    if (!ct.covered || direction[cell] == 0.0) continue;
    const std::size_t abs_node = layout_.node(Slab::kTecAbs, cell);
    const std::size_t rej_node = layout_.node(Slab::kTecRej, cell);
    const double d = direction[cell];
    out[abs_node] = -ct.seebeck * temperatures[abs_node] * d;
    out[rej_node] = ct.seebeck * temperatures[rej_node] * d;
    out[layout_.node(Slab::kTecGen, cell)] =
        2.0 * ct.resistance * cell_current[cell] * d;
  }
}

la::Vector ThermalModel::slab_temperatures(const la::Vector& temperatures,
                                           Slab slab) const {
  if (temperatures.size() != layout_.node_count()) {
    throw std::invalid_argument("ThermalModel::slab_temperatures: arity");
  }
  const std::size_t cells = layout_.cells_per_layer();
  la::Vector out(cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    out[cell] = temperatures[layout_.node(slab, cell)];
  }
  return out;
}

double ThermalModel::max_slab_temperature(const la::Vector& temperatures,
                                          Slab slab) const {
  return la::max_element_value(slab_temperatures(temperatures, slab));
}

double ThermalModel::tec_power(const la::Vector& temperatures,
                               double current) const {
  if (!tec_array_ || current == 0.0) return 0.0;
  const la::Vector cold = slab_temperatures(temperatures, Slab::kTecAbs);
  const la::Vector hot = slab_temperatures(temperatures, Slab::kTecRej);
  return tec_array_->electrical_power(cold, hot, current);
}

double ThermalModel::tec_power(const la::Vector& temperatures,
                               const la::Vector& cell_current) const {
  if (!tec_array_) return 0.0;
  const std::size_t cells = layout_.cells_per_layer();
  if (cell_current.size() != cells) {
    throw std::invalid_argument("ThermalModel::tec_power: arity");
  }
  const la::Vector cold = slab_temperatures(temperatures, Slab::kTecAbs);
  const la::Vector hot = slab_temperatures(temperatures, Slab::kTecRej);
  double acc = 0.0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const tec::CellTec& ct = tec_array_->cell(cell);
    const double current = cell_current[cell];
    if (!ct.covered || current <= 0.0) continue;
    const double delta_t = hot[cell] - cold[cell];
    acc += ct.seebeck * delta_t * current + ct.resistance * current * current;
  }
  return acc;
}

double ThermalModel::tec_power_tangent(const la::Vector& temperatures,
                                       const la::Vector& cell_current,
                                       const la::Vector& dt,
                                       const la::Vector& direction) const {
  if (!tec_array_) return 0.0;
  const std::size_t cells = layout_.cells_per_layer();
  if (temperatures.size() != layout_.node_count() ||
      dt.size() != layout_.node_count() || cell_current.size() != cells ||
      (!direction.empty() && direction.size() != cells)) {
    throw std::invalid_argument("ThermalModel::tec_power_tangent: arity");
  }
  double acc = 0.0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const tec::CellTec& ct = tec_array_->cell(cell);
    if (!ct.covered) continue;
    const std::size_t cold = layout_.node(Slab::kTecAbs, cell);
    const std::size_t hot = layout_.node(Slab::kTecRej, cell);
    const double current = cell_current[cell];
    acc += ct.seebeck * current * (dt[hot] - dt[cold]);
    if (!direction.empty()) {
      acc += direction[cell] *
             (ct.seebeck * (temperatures[hot] - temperatures[cold]) +
              2.0 * ct.resistance * current);
    }
  }
  return acc;
}

double ThermalModel::ambient_outflow(const la::Vector& temperatures,
                                     double omega) const {
  if (temperatures.size() != layout_.node_count()) {
    throw std::invalid_argument("ThermalModel::ambient_outflow: arity");
  }
  double acc = 0.0;
  for (const auto& [node, g] : static_ambient_) {
    acc += g * (temperatures[node] - cfg_.ambient);
  }
  const double g_sink_total = cfg_.sink_fan.conductance(omega);
  for (const auto& [node, share] : sink_ambient_share_) {
    acc += g_sink_total * share * (temperatures[node] - cfg_.ambient);
  }
  return acc;
}

IncrementalAssembler::IncrementalAssembler(const ThermalModel& model,
                                           la::Vector cell_dynamic_power)
    : model_(&model), dynamic_(std::move(cell_dynamic_power)) {
  if (dynamic_.size() != model.layout().cells_per_layer()) {
    throw std::invalid_argument("IncrementalAssembler: per-cell arity");
  }
}

void IncrementalAssembler::assemble_csr(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& cell_taylor,
    CsrSystem& out) const {
  // Re-stamp values in place when the pattern matches; copy it otherwise.
  const la::SparseMatrix& base = model_->static_csr_system().matrix;
  if (out.matrix.size() == base.size() && out.matrix.nnz() == base.nnz() &&
      out.matrix.values().size() == base.values().size()) {
    out.matrix.mutable_values() = base.values();
  } else {
    out.matrix = base;
  }
  model_->stamp_diagonal(
      {.data = out.matrix.mutable_values().data(),
       .positions = model_->static_diagonal_positions().data()},
      omega, cell_current, cell_taylor);
  assemble_rhs(omega, cell_current, cell_taylor, out.rhs);
}

void IncrementalAssembler::assemble_rhs(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& cell_taylor,
    la::Vector& out) const {
  out = model_->static_csr_system().rhs;
  model_->stamp_rhs(out, omega, cell_current, dynamic_, cell_taylor);
}

la::ColumnBlockSymbolic IncrementalAssembler::column_structure() const {
  const NodeLayout& layout = model_->layout();
  std::vector<std::size_t> slab_first(kSlabCount);
  la::CoarseMap coarse;
  for (std::size_t k = 0; k < kSlabCount; ++k) {
    const auto slab = static_cast<Slab>(k);
    slab_first[k] = layout.node(slab, 0);
    coarse.slab_group.push_back(slab == Slab::kSink ? 1 : 0);
  }
  // A 5×5 lateral partition (coarser on grids narrower than 5 cells).
  const std::size_t nx = layout.nx();
  const std::size_t ny = layout.ny();
  const std::size_t px = std::min<std::size_t>(5, nx);
  const std::size_t py = std::min<std::size_t>(5, ny);
  for (std::size_t cell = 0; cell < layout.cells_per_layer(); ++cell) {
    coarse.cell_aggregate.push_back((cell / nx * py / ny) * px +
                                    cell % nx * px / nx);
  }
  return la::ColumnBlockSymbolic::analyze(
      model_->static_csr_system().matrix, layout.cells_per_layer(),
      std::move(slab_first), std::move(coarse));
}

AssembledSystem IncrementalAssembler::assemble_banded(
    double omega, const la::Vector& cell_current,
    const std::vector<power::TaylorCoefficients>& cell_taylor) const {
  return model_->assemble(omega, cell_current, dynamic_, cell_taylor);
}

double ThermalModel::leakage_power(
    const la::Vector& temperatures,
    const std::vector<power::ExponentialTerm>& cell_terms) const {
  const la::Vector chip = slab_temperatures(temperatures, Slab::kChip);
  if (cell_terms.size() != chip.size()) {
    throw std::invalid_argument("ThermalModel::leakage_power: arity");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < chip.size(); ++i) {
    acc += cell_terms[i].evaluate(chip[i]);
  }
  return acc;
}

double ThermalModel::leakage_power_tangent(
    const la::Vector& temperatures,
    const std::vector<power::ExponentialTerm>& cell_terms,
    const la::Vector& dt) const {
  const std::size_t cells = layout_.cells_per_layer();
  if (temperatures.size() != layout_.node_count() ||
      dt.size() != layout_.node_count() || cell_terms.size() != cells) {
    throw std::invalid_argument("ThermalModel::leakage_power_tangent: arity");
  }
  double acc = 0.0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const std::size_t node = layout_.node(Slab::kChip, cell);
    acc += cell_terms[cell].derivative(temperatures[node]) * dt[node];
  }
  return acc;
}

}  // namespace oftec::thermal
